//! Runtime SIMD dispatch policy for the hash kernels.
//!
//! The SHA-1, CRC-32C, LZ slot-hashing and LZ match-probing hot loops each
//! have a portable scalar reference and `std::arch` fast paths (x86_64 SHA
//! extensions for one SHA-1 message, AVX-512F+BW for sixteen lanes and
//! AVX-512F+VL for eight in [`crate::sha1_digest_many`], SSE4.2 `crc32` /
//! aarch64 `crc32c*` for CRC-32C, AVX-512DQ+BW or AVX2 for
//! [`crate::lz_slots`], AVX-512F+CD+BW+VBMI for [`crate::lz_find_match`]).
//! The arms are bit-identical by construction — the fast paths compute the
//! same FIPS 180-1 / Castagnoli / `mix64` functions and make the same
//! match decisions in the same order — and are pinned against each other
//! by differential property tests.
//!
//! Dispatch is decided **once** per process: CPU feature detection plus
//! the `DR_SIMD` environment override, cached so the per-call cost is one
//! relaxed atomic load. Setting `DR_SIMD=scalar` (or `off` / `0`) forces
//! the scalar arms everywhere — the knob the scalar-fallback CI leg uses
//! to keep both dispatch arms tested.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which implementation arm a kernel should take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPolicy {
    /// Use detected CPU features (the default).
    Auto,
    /// Force the portable scalar arms (`DR_SIMD=scalar`).
    Scalar,
}

const POLICY_UNSET: u8 = 0;
const POLICY_AUTO: u8 = 1;
const POLICY_SCALAR: u8 = 2;

static POLICY: AtomicU8 = AtomicU8::new(POLICY_UNSET);

/// The process-wide dispatch policy (env read once, then cached).
pub fn policy() -> SimdPolicy {
    match POLICY.load(Ordering::Relaxed) {
        POLICY_AUTO => SimdPolicy::Auto,
        POLICY_SCALAR => SimdPolicy::Scalar,
        _ => {
            let p = match std::env::var("DR_SIMD") {
                Ok(v) if matches!(v.as_str(), "scalar" | "off" | "0" | "none") => {
                    SimdPolicy::Scalar
                }
                _ => SimdPolicy::Auto,
            };
            POLICY.store(
                match p {
                    SimdPolicy::Auto => POLICY_AUTO,
                    SimdPolicy::Scalar => POLICY_SCALAR,
                },
                Ordering::Relaxed,
            );
            p
        }
    }
}

/// True when the SHA-1 compression can take the x86_64 SHA-extension arm.
pub fn sha1_hw() -> bool {
    static STATE: AtomicU8 = AtomicU8::new(0);
    cached_detect(&STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// True when [`crate::sha1_digest_many`] can take its sixteen-lane
/// multi-buffer arm (32-bit lanes from F, the byte swap's `vpshufb` from
/// BW).
pub fn sha1_mb_avx512() -> bool {
    static STATE: AtomicU8 = AtomicU8::new(0);
    cached_detect(&STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// True when [`crate::sha1_digest_many`] can take its eight-lane arm
/// (`vpternlogd` and `vprold` on `ymm` registers need VL beside F).
pub fn sha1_mb8_avx512vl() -> bool {
    static STATE: AtomicU8 = AtomicU8::new(0);
    cached_detect(&STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// True when CRC-32C can take a hardware-carryless arm (x86_64 SSE4.2
/// `crc32`, aarch64 CRC extension).
pub fn crc32c_hw() -> bool {
    static STATE: AtomicU8 = AtomicU8::new(0);
    cached_detect(&STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("sse4.2")
        }
        #[cfg(target_arch = "aarch64")]
        {
            std::arch::is_aarch64_feature_detected!("crc")
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            false
        }
    })
}

/// True when [`crate::lz_slots`] can take its AVX-512 arm (eight 64-bit
/// lanes: `vpmullq` from DQ, the byte shuffle from BW).
pub fn lz_slots_avx512() -> bool {
    static STATE: AtomicU8 = AtomicU8::new(0);
    cached_detect(&STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512bw")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// True when [`crate::lz_slots`] can take its AVX2 arm; consulted only
/// where [`lz_slots_avx512`] said no.
pub fn lz_slots_avx2() -> bool {
    static STATE: AtomicU8 = AtomicU8::new(0);
    cached_detect(&STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// True when [`crate::lz_find_match`] can take its sixteen-lane arm (the
/// gathers and scatter from F, `vpconflictd` / `vplzcntd` from CD,
/// `vpermb` from VBMI and its byte mask from BW).
pub fn lz_match_avx512() -> bool {
    static STATE: AtomicU8 = AtomicU8::new(0);
    cached_detect(&STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512cd")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vbmi")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Caches a detection result (1 = no, 2 = yes) and folds in the policy:
/// a `Scalar` policy reports every fast path as unavailable.
fn cached_detect(state: &AtomicU8, detect: impl FnOnce() -> bool) -> bool {
    if policy() == SimdPolicy::Scalar {
        return false;
    }
    match state.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let yes = detect();
            state.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_is_stable_across_calls() {
        assert_eq!(policy(), policy());
    }

    #[test]
    fn detection_is_stable_across_calls() {
        assert_eq!(sha1_hw(), sha1_hw());
        assert_eq!(sha1_mb_avx512(), sha1_mb_avx512());
        assert_eq!(sha1_mb8_avx512vl(), sha1_mb8_avx512vl());
        assert_eq!(crc32c_hw(), crc32c_hw());
        assert_eq!(lz_slots_avx512(), lz_slots_avx512());
        assert_eq!(lz_slots_avx2(), lz_slots_avx2());
        assert_eq!(lz_match_avx512(), lz_match_avx512());
    }
}
