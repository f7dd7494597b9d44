//! Power-cut modeling: capture in-flight writes, then tear or revert them.
//!
//! A real power cut freezes the device mid-command: pages whose program
//! finished are durable, pages whose program never started are simply
//! lost, and the page being programmed at the instant of the cut may be
//! *torn* — a prefix of the new data spliced onto the stale remainder.
//! (Consumer SSDs without power-loss capacitors exhibit exactly this;
//! enterprise devices hide it, which is why crash-consistent systems
//! cannot assume page atomicity.)
//!
//! The model is a capture log: once
//! [`crate::SsdDevice::arm_crash_capture`] is called, every accepted page
//! write records its LPN, its service grant `[start, end)`, and what it
//! takes to bring the page's *previous* contents back.
//! [`crate::SsdDevice::power_cut`] then replays the log backwards against
//! the functional store, classifying each write against the cut instant
//! `T`:
//!
//! * `grant.end <= T` — the program completed: **durable**, left as is.
//! * `grant.start >= T` — the command never reached the NAND: **reverted**
//!   to the previous contents (or erased, for a first write).
//! * otherwise — in flight at `T`: **torn**. A seeded split point `s`
//!   keeps the first `s` bytes of the new data and the old bytes (or
//!   zeros) beyond it.
//!
//! Walking the log backwards makes overwrite chains unwind correctly:
//! undoing the latest write to an LPN first leaves the store holding
//! exactly what the next-older capture saw as "new" data.
//!
//! # What a capture keeps
//!
//! The previous contents are never copied. When the old page is a
//! zero-padded prefix of the new one — every re-program of an
//! append-only tail page (the journal's, the destage log's) — the write
//! grows the stored buffer in place and the capture keeps the prefix
//! length alone (`Prev::PrefixOfNew`); telling that case apart costs a
//! scan of the old page's zero tail and one comparison of what precedes
//! it. Otherwise the write takes the old buffer out of the store and the
//! capture keeps it (`Prev::Page`). The cut rebuilds a `PrefixOfNew`
//! page from the page the write left behind. The backwards walk has that
//! page at hand: it is what the store holds, unless a later write to the
//! LPN stayed durable or tore — and then it is that capture's previous
//! contents, which the walk has just rebuilt and sets aside for exactly
//! this.
//!
//! Timing is untouched — a cut changes *contents*, never grants — so a
//! run that arms capture but never cuts is bit-identical to one that
//! does neither.

use std::collections::hash_map::Entry;

use dr_des::{Grant, IdMap, IdSet, SimTime, SplitMix64};

/// When and how to cut power. `torn_seed` drives the split points of
/// torn pages, so a crash experiment replays bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// The sim-time instant the power fails.
    pub at: SimTime,
    /// Seed for torn-page split points.
    pub torn_seed: u64,
}

/// What a [`SsdDevice::power_cut`](crate::SsdDevice::power_cut) did to
/// the captured writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashReport {
    /// Captured writes whose program completed before the cut.
    pub durable: u64,
    /// Writes in flight at the cut, left with spliced contents.
    pub torn: u64,
    /// Writes that never reached the NAND, rolled back entirely.
    pub reverted: u64,
}

/// A page's contents before a captured write.
#[derive(Debug, Clone)]
pub(crate) enum Prev {
    /// Nothing: the store had no page at the LPN.
    Erased,
    /// The old page itself, moved out of the store by the write.
    Page(Vec<u8>),
    /// The old page was the first `len` bytes of the new one, then zeros.
    PrefixOfNew(usize),
}

impl Prev {
    /// Heap bytes this capture holds on to.
    pub(crate) fn retained_bytes(&self) -> usize {
        match self {
            Prev::Page(page) => page.len(),
            Prev::Erased | Prev::PrefixOfNew(_) => 0,
        }
    }
}

/// Programs `new` into `store` at `lpn` and, when capture is `armed`,
/// returns what bringing the displaced page back takes. The displaced
/// page's buffer takes the new contents in place unless the capture has
/// to keep it; a first write is the only other allocation.
pub(crate) fn program(
    store: &mut IdMap<u64, Vec<u8>>,
    lpn: u64,
    new: &[u8],
    armed: bool,
) -> Option<Prev> {
    let page = match store.entry(lpn) {
        Entry::Vacant(slot) => {
            slot.insert(new.to_vec());
            return armed.then_some(Prev::Erased);
        }
        Entry::Occupied(slot) => slot.into_mut(),
    };
    if !armed {
        page.copy_from_slice(new);
        return None;
    }
    let used = nonzero_len(page);
    Some(if page[..used] == new[..used] {
        // The old page is `new[..used]` then zeros: grow it in place.
        page[used..].copy_from_slice(&new[used..]);
        Prev::PrefixOfNew(used)
    } else {
        Prev::Page(std::mem::replace(page, new.to_vec()))
    })
}

/// The length of `page` without its trailing zero bytes. Runs once per
/// captured overwrite, so it reads the page from the end as 8-byte
/// words, zero-testing a run of them (an OR, no branch) per step before
/// it looks at single words and bytes.
fn nonzero_len(page: &[u8]) -> usize {
    const RUN: usize = 32;
    let (head, words) = page.as_rchunks::<8>();
    let word = |w: &[u8; 8]| u64::from_le_bytes(*w);
    let mut end = words.len();
    while end >= RUN && words[end - RUN..end].iter().fold(0, |acc, w| acc | word(w)) == 0 {
        end -= RUN;
    }
    while end > 0 && word(&words[end - 1]) == 0 {
        end -= 1;
    }
    match end {
        0 => head.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1),
        // Little-endian: the word's last non-zero byte is its most
        // significant one.
        _ => head.len() + end * 8 - (word(&words[end - 1]).leading_zeros() / 8) as usize,
    }
}

/// One armed-capture record: enough to undo or tear the write later.
#[derive(Debug, Clone)]
pub(crate) struct WriteCapture {
    pub(crate) lpn: u64,
    pub(crate) grant: Grant,
    pub(crate) prev: Prev,
}

/// One entry of the capture log.
#[derive(Debug)]
pub(crate) enum Capture {
    /// An accepted page write.
    Write(WriteCapture),
    /// A TRIM took `page` out of the store. A cut does not undo a TRIM;
    /// the page is kept because an older [`Prev::PrefixOfNew`] capture on
    /// the LPN may need it as the page its write left behind.
    Trimmed { lpn: u64, page: Vec<u8> },
}

impl Capture {
    /// Bytes the log holds for this entry, the entry itself included.
    pub(crate) fn retained_bytes(&self) -> usize {
        std::mem::size_of::<Capture>()
            + match self {
                Capture::Write(cap) => cap.prev.retained_bytes(),
                Capture::Trimmed { page, .. } => page.len(),
            }
    }
}

/// The armed capture log and the bytes it holds on to.
#[derive(Debug, Default)]
pub(crate) struct CaptureLog {
    pub(crate) entries: Vec<Capture>,
    /// Sum of the entries' [`Capture::retained_bytes`].
    pub(crate) retained_bytes: usize,
}

impl CaptureLog {
    pub(crate) fn push(&mut self, entry: Capture) {
        self.retained_bytes += entry.retained_bytes();
        self.entries.push(entry);
    }
}

/// Applies `spec` to a capture log, mutating `store` in place.
pub(crate) fn apply_power_cut(
    store: &mut IdMap<u64, Vec<u8>>,
    log: Vec<Capture>,
    page_bytes: usize,
    spec: CrashSpec,
) -> CrashReport {
    let mut rng = SplitMix64::new(spec.torn_seed);
    let mut report = CrashReport::default();
    // LPNs with a write the cut does not leave alone. Everywhere else
    // every capture is durable and is dropped unread.
    let unsettled: IdSet<u64> = log
        .iter()
        .filter_map(|entry| match entry {
            Capture::Write(cap) if cap.grant.end > spec.at => Some(cap.lpn),
            _ => None,
        })
        .collect();
    // Per unsettled LPN, the page the capture about to be visited left
    // behind, when that is no longer what the store holds.
    let mut left_behind: IdMap<u64, Vec<u8>> = IdMap::default();
    for entry in log.into_iter().rev() {
        let cap = match entry {
            Capture::Write(cap) => cap,
            Capture::Trimmed { lpn, page } => {
                if unsettled.contains(&lpn) {
                    left_behind.insert(lpn, page);
                }
                continue;
            }
        };
        if !unsettled.contains(&cap.lpn) {
            report.durable += 1;
            continue;
        }
        let left = left_behind.remove(&cap.lpn);
        let prev = match cap.prev {
            Prev::Erased => None,
            Prev::Page(page) => Some(page),
            Prev::PrefixOfNew(len) => {
                let mut page = left
                    .or_else(|| store.get(&cap.lpn).cloned())
                    .expect("the page a captured write left behind");
                page[len..].fill(0);
                Some(page)
            }
        };
        if cap.grant.end <= spec.at {
            report.durable += 1;
            left_behind.extend(prev.map(|page| (cap.lpn, page)));
        } else if cap.grant.start >= spec.at {
            match prev {
                Some(prev) => {
                    store.insert(cap.lpn, prev);
                }
                None => {
                    store.remove(&cap.lpn);
                }
            }
            report.reverted += 1;
        } else {
            // Torn: prefix of whatever the store holds now — the new data,
            // unless a later write to this LPN landed or tore too — and
            // the stale (or erased) suffix.
            let split = rng.next_below(page_bytes as u64 + 1) as usize;
            let mut torn = match store.get(&cap.lpn) {
                Some(new) => new[..split].to_vec(),
                None => vec![0; split],
            };
            match &prev {
                Some(prev) => torn.extend_from_slice(&prev[split..]),
                None => torn.resize(page_bytes, 0),
            }
            store.insert(cap.lpn, torn);
            report.torn += 1;
            left_behind.extend(prev.map(|page| (cap.lpn, page)));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant(start_us: u64, end_us: u64) -> Grant {
        Grant {
            start: SimTime::ZERO + dr_des::SimDuration::from_micros(start_us),
            end: SimTime::ZERO + dr_des::SimDuration::from_micros(end_us),
        }
    }

    fn cut_at(us: u64) -> CrashSpec {
        CrashSpec {
            at: SimTime::ZERO + dr_des::SimDuration::from_micros(us),
            torn_seed: 7,
        }
    }

    #[test]
    fn durable_reverted_and_torn_classify_by_grant() {
        let mut store = IdMap::default();
        store.insert(0, vec![1u8; 8]);
        store.insert(1, vec![2u8; 8]);
        store.insert(2, vec![3u8; 8]);
        let log = vec![
            Capture::Write(WriteCapture {
                lpn: 0,
                grant: grant(0, 10),
                prev: Prev::Erased,
            }),
            Capture::Write(WriteCapture {
                lpn: 1,
                grant: grant(10, 30),
                prev: Prev::Page(vec![9u8; 8]),
            }),
            Capture::Write(WriteCapture {
                lpn: 2,
                grant: grant(40, 50),
                prev: Prev::Erased,
            }),
        ];
        let report = apply_power_cut(&mut store, log, 8, cut_at(20));
        assert_eq!(
            report,
            CrashReport {
                durable: 1,
                torn: 1,
                reverted: 1
            }
        );
        // lpn 0 completed before the cut.
        assert_eq!(store.get(&0), Some(&vec![1u8; 8]));
        // lpn 1 was in flight: a prefix of 2s, a suffix of 9s.
        let torn = store.get(&1).unwrap();
        assert_eq!(torn.len(), 8);
        let split = torn.iter().take_while(|&&b| b == 2).count();
        assert!(torn[split..].iter().all(|&b| b == 9), "torn page {torn:?}");
        // lpn 2 never started: first write, so the page vanishes.
        assert!(!store.contains_key(&2));
    }

    #[test]
    fn overwrite_chains_unwind_in_reverse() {
        let mut store = IdMap::default();
        store.insert(5, vec![3u8; 4]);
        // Three generations on one LPN: 1s (durable), 2s (durable), 3s
        // (reverted). The survivor must be the 2s.
        let log = vec![
            Capture::Write(WriteCapture {
                lpn: 5,
                grant: grant(0, 10),
                prev: Prev::Erased,
            }),
            Capture::Write(WriteCapture {
                lpn: 5,
                grant: grant(10, 20),
                prev: Prev::Page(vec![1u8; 4]),
            }),
            Capture::Write(WriteCapture {
                lpn: 5,
                grant: grant(100, 110),
                prev: Prev::Page(vec![2u8; 4]),
            }),
        ];
        let report = apply_power_cut(&mut store, log, 4, cut_at(50));
        assert_eq!(report.durable, 2);
        assert_eq!(report.reverted, 1);
        assert_eq!(store.get(&5), Some(&vec![2u8; 4]));
    }

    #[test]
    fn torn_split_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut store = IdMap::default();
            store.insert(0, vec![0xAAu8; 64]);
            let log = vec![Capture::Write(WriteCapture {
                lpn: 0,
                grant: grant(0, 100),
                prev: Prev::Page(vec![0x55u8; 64]),
            })];
            apply_power_cut(
                &mut store,
                log,
                64,
                CrashSpec {
                    at: SimTime::ZERO + dr_des::SimDuration::from_micros(50),
                    torn_seed: seed,
                },
            );
            store.remove(&0).unwrap()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "different seeds should tear differently");
    }

    #[test]
    fn cut_before_everything_reverts_everything() {
        let mut store = IdMap::default();
        store.insert(0, vec![1u8; 4]);
        let log = vec![Capture::Write(WriteCapture {
            lpn: 0,
            grant: grant(10, 20),
            prev: Prev::Erased,
        })];
        let report = apply_power_cut(&mut store, log, 4, cut_at(0));
        assert_eq!(report.reverted, 1);
        assert!(store.is_empty());
    }

    #[test]
    fn nonzero_len_is_the_last_nonzero_byte_plus_one() {
        for len in (0usize..=130).chain([200, 4096]) {
            for last in (0..len).step_by(7).chain([len.saturating_sub(1)]) {
                let mut page = vec![0u8; len];
                if len > 0 {
                    page[last] = 0x80;
                    // Zeros and non-zeros before it change nothing.
                    page[..last].iter_mut().step_by(3).for_each(|b| *b = 1);
                }
                let want = page.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
                assert_eq!(nonzero_len(&page), want, "{len}-byte page, last at {last}");
            }
            assert_eq!(nonzero_len(&vec![0u8; len]), 0);
        }
    }
}
