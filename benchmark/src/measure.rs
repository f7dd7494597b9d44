//! What one repetition measures, and the closed-loop client that fills it
//! in: one thread, the next call issued when the previous one returned.

use std::time::Instant;

use crate::sut::{LayerObs, SimCounters, Store, CHUNK};
use crate::trace::{self, Recorder};

/// Which kind of read a call was; ingest workloads' sequential read-back
/// is cold, the cluster's zipf point reads are hot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadClass {
    Hot = 0,
    Cold = 1,
}

/// Test hooks that sabotage the benchmark's own model, to prove the
/// verifier verifies.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hooks {
    /// Flip one byte of the expected content of one block.
    pub corrupt_model: bool,
    /// `read_mix` only: cut power at the ack of the second-to-last
    /// overwrite while the model still expects the last one.
    pub cut_early: bool,
}

/// Everything one repetition of a workload's work unit produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds building the fresh system (constructors, volume
    /// creation, any preload) — outside every timed region.
    pub setup_s: f64,
    /// Host nanoseconds of each write call (the final flush included).
    pub write_ns: Vec<u64>,
    pub write_bytes: u64,
    /// Host nanoseconds of each read call, by class.
    pub read_ns: [Vec<u64>; 2],
    pub read_bytes: u64,
    /// Simulated service time of each read call.
    pub sim_read_ns: Vec<u64>,
    /// Chunk reads and cache hits the program reported, by class.
    pub reads: [u64; 2],
    pub cache_hits: [u64; 2],
    /// Calls made plus blocks verified / of those, how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the log.
    pub failures: Vec<String>,
    /// The system's `Report` counters when the timed work ended, and
    /// when it began (non-zero only where set-up preloads data).
    pub sim: SimCounters,
    pub sim_base: SimCounters,
    /// The program's metric registry over the timed work (empty unless
    /// the repetition was observed).
    pub obs: LayerObs,
    /// Further exact values folded into `sim_digest` (recovery counts).
    pub sim_extra: Vec<(&'static str, u64)>,
    /// Allocations / bytes during write calls (traced repetition only).
    pub allocs: (u64, u64),
}

impl Rep {
    pub fn write_s(&self) -> f64 {
        self.write_ns.iter().sum::<u64>() as f64 / 1e9
    }

    pub fn read_s(&self) -> f64 {
        self.read_ns.iter().flatten().sum::<u64>() as f64 / 1e9
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what());
        }
    }
}

/// The expected bytes of one block, with the `--corrupt-model` hook
/// applied when `corrupt` is set.
pub fn matches_model(expected: &[u8], got: &[u8], corrupt: bool) -> bool {
    if corrupt {
        expected.len() == got.len() && expected[0] ^ 1 == got[0] && expected[1..] == got[1..]
    } else {
        expected == got
    }
}

/// One timed write call of whole chunks at `block`.
pub fn timed_write(
    rep: &mut Rep,
    rec: &mut Recorder,
    sys: &mut dyn Store,
    op: u64,
    block: u64,
    data: &[u8],
) {
    trace::arm_alloc_counter(rec.is_enabled());
    let start = Instant::now();
    let result = sys.write(block, data);
    let took = start.elapsed();
    trace::arm_alloc_counter(false);
    rec.leaf("write", op, start, took);
    rep.write_ns.push(took.as_nanos() as u64);
    rep.write_bytes += data.len() as u64;
    rep.attempted += 1;
    if let Err(e) = result {
        rep.fail(|| format!("write at block {block}: {e}"));
    }
}

/// The final flush, charged to write time.
pub fn timed_flush(rep: &mut Rep, rec: &mut Recorder, sys: &mut dyn Store) {
    let start = Instant::now();
    let result = sys.flush();
    let took = start.elapsed();
    rec.leaf("flush", 0, start, took);
    rep.write_ns.push(took.as_nanos() as u64);
    rep.attempted += 1;
    if let Err(e) = result {
        rep.fail(|| format!("flush: {e}"));
    }
}

/// One timed read call (`read_one` for a single block, `read_batch`
/// otherwise), then — outside the timed region — a byte-for-byte check of
/// every returned block against `expected(i)`, the model's content for
/// `blocks[i]`.
pub fn timed_read<'m>(
    rep: &mut Rep,
    rec: &mut Recorder,
    sys: &mut dyn Store,
    class: ReadClass,
    op: u64,
    blocks: &[u64],
    expected: impl Fn(usize) -> (&'m [u8], bool),
) {
    let before = sys.read_clock();
    let start = Instant::now();
    let result = match blocks {
        [one] => sys.read_one(*one).map(|b| vec![b]),
        many => sys.read_batch(many),
    };
    let took = start.elapsed();
    let after = sys.read_clock();
    rec.leaf(
        match class {
            ReadClass::Hot => "read.hot",
            ReadClass::Cold => "read.cold",
        },
        op,
        start,
        took,
    );
    rep.read_ns[class as usize].push(took.as_nanos() as u64);
    rep.sim_read_ns.push(before.sim_ns_until(&after));
    rep.reads[class as usize] += after.reads - before.reads;
    rep.cache_hits[class as usize] += after.cache_hits - before.cache_hits;
    rep.attempted += 1;
    match result {
        Err(e) => rep.fail(|| format!("read of {} blocks at {}: {e}", blocks.len(), blocks[0])),
        Ok(got) => {
            rep.read_bytes += (got.len() * CHUNK) as u64;
            verify_blocks(rep, blocks, &got, expected);
        }
    }
}

/// Compares read-back blocks with the model; each block is one attempted
/// operation.
pub fn verify_blocks<'m>(
    rep: &mut Rep,
    blocks: &[u64],
    got: &[Vec<u8>],
    expected: impl Fn(usize) -> (&'m [u8], bool),
) {
    if got.len() != blocks.len() {
        rep.attempted += blocks.len() as u64;
        rep.failed += blocks.len() as u64;
        return;
    }
    for (i, bytes) in got.iter().enumerate() {
        rep.attempted += 1;
        let (want, corrupt) = expected(i);
        if !matches_model(want, bytes, corrupt) {
            rep.fail(|| format!("block {} read back differs from the model", blocks[i]));
        }
    }
}

/// splitmix64: the benchmark's own seeded generator for schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_hook_inverts_the_verdict() {
        let block = vec![7u8; 16];
        assert!(matches_model(&block, &block, false));
        assert!(!matches_model(&block, &block, true));
        let mut flipped = block.clone();
        flipped[0] ^= 1;
        assert!(matches_model(&block, &flipped, true));
        assert!(!matches_model(&block, &flipped, false));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
        assert!(Rng::new(3).below(10) < 10);
    }
}
