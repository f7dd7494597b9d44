//! Background (offline) data reduction — the baseline the paper argues
//! against.
//!
//! The paper's introduction: one way to hide reduction cost is to *"store
//! all of the data on the storage system and then perform data reduction
//! in the background when the system is idle. However, this generates
//! more write I/O than systems without the data reduction operations.
//! Therefore, it is not applicable to SSD-based storage systems due to
//! write endurance problems."*
//!
//! [`BackgroundReducer`] implements that strawman faithfully: the write
//! path stores every chunk verbatim (fast — no inline work), and an idle
//! pass later reads everything back, deduplicates + compresses it, writes
//! the reduced log, and trims the originals. [`compare_endurance`] runs
//! the same stream through both systems and reports the NAND wear each
//! one caused — the quantitative version of the paper's motivation.

use dr_binindex::{BinIndex, BinIndexConfig, ChunkRef};
use dr_compress::{Codec, FastLz};
use dr_des::SimTime;
use dr_hashes::sha1_digest;
use dr_ssd_sim::{SsdDevice, SsdSpec};

use crate::cpu_model::CpuModel;
use crate::destage::Destager;
use crate::pipeline::{IntegrationMode, Pipeline, PipelineConfig};

/// Statistics of a background-reduction run.
#[derive(Debug, Clone)]
pub struct BackgroundReport {
    /// Chunks ingested on the (reduction-free) write path.
    pub chunks: u64,
    /// Raw bytes ingested.
    pub bytes_in: u64,
    /// Bytes stored after the idle-time reduction pass.
    pub stored_bytes: u64,
    /// When the inline write path finished.
    pub ingest_end: SimTime,
    /// When the idle reduction pass finished.
    pub reduction_end: SimTime,
    /// NAND page programs caused over the whole lifecycle.
    pub nand_writes: u64,
    /// Fraction of rated P/E cycles consumed.
    pub endurance_consumed: f64,
}

impl BackgroundReport {
    /// Data reduction ratio achieved (after the idle pass).
    pub fn reduction_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.bytes_in as f64 / self.stored_bytes as f64
        }
    }
}

/// The background-reduction strawman system.
#[derive(Debug)]
pub struct BackgroundReducer {
    ssd: SsdDevice,
    staged: Vec<(u64, usize)>, // (first lpn, chunk len) of each raw chunk
    chunk_bytes: usize,
    next_lpn: u64,
    clock: SimTime,
    report: BackgroundReport,
}

impl BackgroundReducer {
    /// Builds the system on `ssd_spec` with `chunk_bytes` chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is not a multiple of the device page size.
    pub fn new(ssd_spec: SsdSpec, chunk_bytes: usize) -> Self {
        assert_eq!(
            chunk_bytes % ssd_spec.page_bytes as usize,
            0,
            "chunks must be whole pages on the raw write path"
        );
        let ssd = SsdDevice::new(ssd_spec);
        BackgroundReducer {
            ssd,
            staged: Vec::new(),
            chunk_bytes,
            next_lpn: 0,
            clock: SimTime::ZERO,
            report: BackgroundReport {
                chunks: 0,
                bytes_in: 0,
                stored_bytes: 0,
                ingest_end: SimTime::ZERO,
                reduction_end: SimTime::ZERO,
                nand_writes: 0,
                endurance_consumed: 0.0,
            },
        }
    }

    /// The write path: store chunks verbatim, no reduction work at all.
    pub fn ingest(&mut self, blocks: &[Vec<u8>]) {
        let pages_per_chunk = self.chunk_bytes / self.ssd.spec().page_bytes as usize;
        for block in blocks {
            let first = self.next_lpn;
            let mut padded = block.clone();
            padded.resize(pages_per_chunk * self.ssd.spec().page_bytes as usize, 0);
            for (i, page) in padded
                .chunks(self.ssd.spec().page_bytes as usize)
                .enumerate()
            {
                let g = self
                    .ssd
                    .write_page(self.clock, first + i as u64, page)
                    .expect("raw ingest write failed (device too small)");
                self.report.ingest_end = self.report.ingest_end.max(g.end);
            }
            self.next_lpn += pages_per_chunk as u64;
            self.staged.push((first, block.len()));
            self.report.chunks += 1;
            self.report.bytes_in += block.len() as u64;
        }
        self.clock = self.report.ingest_end;
    }

    /// The idle pass: read everything back, dedupe + compress, rewrite the
    /// reduced log, trim the originals. Returns the final report.
    pub fn reduce_when_idle(&mut self) -> BackgroundReport {
        let codec = FastLz::new();
        let mut index = BinIndex::new(BinIndexConfig::default());
        let mut destage = Destager::new(&self.ssd);
        // The reduced log must not collide with the raw region: place it
        // after the raw chunks (the raw region is trimmed as we go).
        let mut now = self.clock;
        let page_bytes = self.ssd.spec().page_bytes as usize;
        let pages_per_chunk = self.chunk_bytes / page_bytes;
        let staged = std::mem::take(&mut self.staged);
        for (first_lpn, len) in staged {
            // Read the chunk back (costs device time + CPU hash time).
            let mut data = Vec::with_capacity(self.chunk_bytes);
            for i in 0..pages_per_chunk as u64 {
                let (page, g) = self
                    .ssd
                    .read_page(now, first_lpn + i)
                    .expect("background read failed");
                data.extend_from_slice(&page);
                now = now.max(g.end);
            }
            data.truncate(len);
            now += CpuModel::I7_3770K.hash_cost(data.len());
            let digest = sha1_digest(&data);

            // Dedup; unique chunks get compressed and rewritten.
            if index.lookup(&digest).is_none() {
                let ratio_frame = codec.compress(&data);
                now += CpuModel::I7_3770K
                    .compress_cost(data.len(), data.len() as f64 / ratio_frame.len() as f64);
                // Rewrite into the reduced log (extra NAND wear — the
                // paper's point). The log grows from the top via the
                // index region allocator to avoid colliding with raw data.
                let frame_len = ratio_frame.len() as u64;
                destage
                    .append_index(now, &mut self.ssd, frame_len)
                    .expect("reduced rewrite failed");
                self.report.stored_bytes += frame_len;
                index.insert(digest, ChunkRef::new(0, ratio_frame.len() as u32));
            }
            // Trim the raw copy either way.
            for i in 0..pages_per_chunk as u64 {
                self.ssd.trim(first_lpn + i).expect("trim failed");
            }
        }
        self.report.reduction_end = now;
        self.report.nand_writes = self.ssd.ftl_stats().nand_writes;
        self.report.endurance_consumed = self.ssd.endurance_consumed();
        self.report.clone()
    }
}

/// Endurance comparison: the same stream through inline reduction, through
/// background reduction, and with no reduction at all.
#[derive(Debug, Clone)]
pub struct EnduranceComparison {
    /// NAND page programs under inline reduction.
    pub inline_nand_writes: u64,
    /// NAND page programs under background reduction.
    pub background_nand_writes: u64,
    /// NAND page programs with reduction disabled (store everything).
    pub none_nand_writes: u64,
}

impl EnduranceComparison {
    /// How many times more NAND wear background reduction causes than
    /// inline reduction.
    pub fn background_penalty(&self) -> f64 {
        self.background_nand_writes as f64 / self.inline_nand_writes.max(1) as f64
    }
}

/// Runs `blocks`, 4 KiB each, through all three systems on identical SSD
/// profiles, the inline pipeline wired to `obs` (pass a disabled handle
/// for none), so the wear comparison can also yield the inline system's
/// destage/SSD metrics.
pub fn compare_endurance(
    blocks: &[Vec<u8>],
    ssd_spec: &SsdSpec,
    obs: &dr_obs::ObsHandle,
) -> EnduranceComparison {
    // Inline.
    let mut inline_pipeline = Pipeline::new(PipelineConfig {
        mode: IntegrationMode::CpuOnly,
        ssd_spec: ssd_spec.clone(),
        obs: obs.clone(),
        ..PipelineConfig::default()
    });
    inline_pipeline.run(&blocks.concat());

    // Background.
    let mut background = BackgroundReducer::new(ssd_spec.clone(), 4096);
    background.ingest(blocks);
    background.reduce_when_idle();

    // No reduction.
    let mut raw = SsdDevice::new(ssd_spec.clone());
    let page = vec![0u8; ssd_spec.page_bytes as usize];
    for (lpn, _) in blocks.iter().enumerate() {
        raw.write_page(SimTime::ZERO, lpn as u64, &page)
            .expect("raw write");
    }

    EnduranceComparison {
        inline_nand_writes: inline_pipeline.ssd_ftl_stats().nand_writes,
        background_nand_writes: background.ssd.ftl_stats().nand_writes,
        none_nand_writes: raw.ftl_stats().nand_writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SsdSpec {
        SsdSpec {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 128,
            pages_per_block: 32,
            store_data: true,
            ..SsdSpec::samsung_830_256g()
        }
    }

    fn blocks(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut b = vec![(i % 8) as u8; 4096];
                b[..4].copy_from_slice(&((i % 8) as u32).to_le_bytes());
                b
            })
            .collect()
    }

    #[test]
    fn ingest_writes_everything_verbatim() {
        let mut bg = BackgroundReducer::new(spec(), 4096);
        let data = blocks(32);
        bg.ingest(&data);
        assert_eq!(bg.report.chunks, 32);
        assert_eq!(bg.ssd.stats().writes, 32); // one page per 4 KB chunk
    }

    #[test]
    fn idle_pass_reduces_and_trims() {
        let mut bg = BackgroundReducer::new(spec(), 4096);
        let data = blocks(32); // 8 unique patterns
        bg.ingest(&data);
        let report = bg.reduce_when_idle();
        assert!(
            report.reduction_ratio() > 4.0,
            "{}",
            report.reduction_ratio()
        );
        assert!(report.reduction_end > report.ingest_end);
        // Raw copies trimmed: reading one back fails.
        assert!(bg.ssd.read_page(report.reduction_end, 0).is_err());
    }

    #[test]
    fn background_wears_the_flash_more_than_inline() {
        let data = blocks(64);
        let cmp = compare_endurance(&data, &spec(), &dr_obs::ObsHandle::disabled());
        assert!(
            cmp.background_nand_writes > cmp.inline_nand_writes,
            "background {} vs inline {}",
            cmp.background_nand_writes,
            cmp.inline_nand_writes
        );
        assert!(cmp.background_penalty() > 1.5, "{:?}", cmp);
        // And background writes even more than no reduction at all.
        assert!(cmp.background_nand_writes > cmp.none_nand_writes, "{cmp:?}");
    }

    #[test]
    #[should_panic(expected = "whole pages")]
    fn non_page_multiple_chunks_rejected() {
        BackgroundReducer::new(spec(), 1000);
    }
}
