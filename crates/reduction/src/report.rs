//! The pipeline's end-of-run report: the metrics the paper plots.

use dr_binindex::IndexStats;
use dr_des::{SimDuration, SimTime};

use crate::pipeline::IntegrationMode;

/// Everything a pipeline run measured.
///
/// Throughput numbers (the paper's y-axes) are derived from the simulated
/// clock: [`Report::iops`] is chunks per simulated second at the instant
/// the *last chunk finished reduction* — destaging continues
/// asynchronously until [`Report::ssd_end`].
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// GPU assignment used for the run.
    pub mode: IntegrationMode,
    /// Chunks processed.
    pub chunks: u64,
    /// Raw stream bytes in.
    pub bytes_in: u64,
    /// Chunks resolved as duplicates.
    pub dedup_hits: u64,
    /// Duplicate resolutions that came from a bin buffer (CPU path,
    /// including intra-batch duplicates).
    pub buffer_hits: u64,
    /// Duplicate resolutions that came from a bin tree (CPU path).
    pub tree_hits: u64,
    /// Raw bytes eliminated by deduplication.
    pub bytes_deduped: u64,
    /// Unique chunks stored.
    pub unique_chunks: u64,
    /// Bytes of sealed frames destaged (post-compression).
    pub stored_bytes: u64,
    /// When the last chunk finished its final reduction stage.
    pub reduction_end: SimTime,
    /// When the SSD finished the last destage write.
    pub ssd_end: SimTime,
    /// When the last read completed ([`SimTime::ZERO`] when nothing was
    /// read). Reads run on the same simulated clock as writes, so this is
    /// always ≥ the `reduction_end` in effect when the read was issued.
    pub read_end: SimTime,
    /// Chunk reads served by the read path (batched or single).
    pub reads: u64,
    /// Decompressed bytes returned to readers.
    pub read_bytes: u64,
    /// Reads served from the decompressed-chunk cache.
    pub read_cache_hits: u64,
    /// Always 0: cold reads decode on the CPU in every mode, so no read
    /// batch runs on the GPU. Kept only because the repository's
    /// benchmark package still reads it; it goes once that read does.
    pub gpu_decomp_batches: u64,
    /// When the last GPU bin mirror finished syncing.
    pub gpu_index_sync_end: SimTime,
    /// GPU index queries issued.
    pub gpu_index_queries: u64,
    /// GPU index hits.
    pub gpu_index_hits: u64,
    /// GPU compression batches launched.
    pub gpu_comp_batches: u64,
    /// Bin-buffer flushes (each produced one sequential index write).
    pub bin_flushes: u64,
    /// CPU-side index statistics.
    pub index_stats: IndexStats,
    /// Host page writes the SSD served.
    pub ssd_writes: u64,
    /// Host bytes the SSD absorbed.
    pub ssd_bytes_written: u64,
    /// NAND write amplification during the run.
    pub write_amplification: f64,
    /// Kernels launched on the GPU.
    pub gpu_kernels: u64,
    /// Total GPU busy time.
    pub gpu_busy: SimDuration,
    /// Total CPU busy time across workers.
    pub cpu_busy: SimDuration,
    /// Faults the device models injected (SSD + GPU).
    pub faults_injected: u64,
    /// Transient-fault retries the pipeline and destager performed.
    pub fault_retries: u64,
    /// Healthy→degraded latch transitions across all components.
    pub degraded_transitions: u64,
}

impl Report {
    /// An empty report for `mode`.
    pub fn new(mode: IntegrationMode) -> Self {
        Report {
            mode,
            chunks: 0,
            bytes_in: 0,
            dedup_hits: 0,
            buffer_hits: 0,
            tree_hits: 0,
            bytes_deduped: 0,
            unique_chunks: 0,
            stored_bytes: 0,
            reduction_end: SimTime::ZERO,
            ssd_end: SimTime::ZERO,
            read_end: SimTime::ZERO,
            reads: 0,
            read_bytes: 0,
            read_cache_hits: 0,
            gpu_decomp_batches: 0,
            gpu_index_sync_end: SimTime::ZERO,
            gpu_index_queries: 0,
            gpu_index_hits: 0,
            gpu_comp_batches: 0,
            bin_flushes: 0,
            index_stats: IndexStats::default(),
            ssd_writes: 0,
            ssd_bytes_written: 0,
            write_amplification: 1.0,
            gpu_kernels: 0,
            gpu_busy: SimDuration::ZERO,
            cpu_busy: SimDuration::ZERO,
            faults_injected: 0,
            fault_retries: 0,
            degraded_transitions: 0,
        }
    }

    /// Reduction-engine throughput in chunk operations per simulated
    /// second (the paper reports 4 KB-chunk IOPS).
    pub fn iops(&self) -> f64 {
        let secs = self.reduction_end.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.chunks as f64 / secs
        }
    }

    /// Reduction-engine bandwidth in MB (10^6 bytes) per simulated second.
    pub fn mb_per_sec(&self) -> f64 {
        let secs = self.reduction_end.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes_in as f64 / 1e6 / secs
        }
    }

    /// Overall data reduction ratio: raw bytes in / stored bytes.
    pub fn reduction_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.bytes_in as f64 / self.stored_bytes as f64
        }
    }

    /// Deduplication ratio: total chunks / unique chunks.
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique_chunks == 0 {
            1.0
        } else {
            self.chunks as f64 / self.unique_chunks as f64
        }
    }

    /// Compression ratio over the unique data actually stored.
    pub fn compression_ratio(&self) -> f64 {
        let unique_bytes = self.bytes_in - self.bytes_deduped;
        if self.stored_bytes == 0 {
            1.0
        } else {
            unique_bytes as f64 / self.stored_bytes as f64
        }
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "[{}] {} chunks ({:.1} MB) in {:.3} sim-s => {:.0} IOPS, {:.1} MB/s",
            self.mode,
            self.chunks,
            self.bytes_in as f64 / 1e6,
            self.reduction_end.as_secs_f64(),
            self.iops(),
            self.mb_per_sec(),
        )?;
        writeln!(
            f,
            "  dedup {:.2}x ({} hits), compression {:.2}x, overall {:.2}x; stored {:.1} MB",
            self.dedup_ratio(),
            self.dedup_hits,
            self.compression_ratio(),
            self.reduction_ratio(),
            self.stored_bytes as f64 / 1e6,
        )?;
        write!(
            f,
            "  ssd: {} page writes, WA {:.2}; gpu: {} kernels busy {}; cpu busy {}",
            self.ssd_writes,
            self.write_amplification,
            self.gpu_kernels,
            self.gpu_busy,
            self.cpu_busy,
        )?;
        // Printed only when the run actually read, so write-only runs
        // produce byte-identical output to builds without the read path.
        if self.reads > 0 {
            write!(
                f,
                "\n  reads: {} ({:.1} MB), {} cache hits, read_end {:.3} sim-s",
                self.reads,
                self.read_bytes as f64 / 1e6,
                self.read_cache_hits,
                self.read_end.as_secs_f64(),
            )?;
        }
        // Printed only when something actually faulted, so fault-free runs
        // produce byte-identical output to builds without the fault layer.
        if self.faults_injected > 0 || self.fault_retries > 0 || self.degraded_transitions > 0 {
            write!(
                f,
                "\n  faults: {} injected, {} retries, {} degraded transitions",
                self.faults_injected, self.fault_retries, self.degraded_transitions,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_on_empty_report_are_neutral() {
        let r = Report::new(IntegrationMode::CpuOnly);
        assert_eq!(r.iops(), 0.0);
        assert_eq!(r.reduction_ratio(), 1.0);
        assert_eq!(r.dedup_ratio(), 1.0);
        assert_eq!(r.compression_ratio(), 1.0);
    }

    #[test]
    fn ratios_compose() {
        let mut r = Report::new(IntegrationMode::CpuOnly);
        r.chunks = 100;
        r.bytes_in = 100 * 4096;
        r.dedup_hits = 50;
        r.bytes_deduped = 50 * 4096;
        r.unique_chunks = 50;
        r.stored_bytes = 50 * 2048;
        // dedup 2x, compression 2x, overall 4x.
        assert!((r.dedup_ratio() - 2.0).abs() < 1e-9);
        assert!((r.compression_ratio() - 2.0).abs() < 1e-9);
        assert!((r.reduction_ratio() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn iops_uses_reduction_end() {
        let mut r = Report::new(IntegrationMode::CpuOnly);
        r.chunks = 1000;
        r.bytes_in = 1000 * 4096;
        r.reduction_end = SimTime::ZERO + SimDuration::from_millis(10);
        assert!((r.iops() - 100_000.0).abs() < 1.0);
        assert!((r.mb_per_sec() - 409.6).abs() < 0.1);
    }

    #[test]
    fn fault_line_appears_only_when_faults_happened() {
        let mut r = Report::new(IntegrationMode::CpuOnly);
        assert!(!r.to_string().contains("faults:"));
        r.faults_injected = 3;
        r.fault_retries = 2;
        assert!(r
            .to_string()
            .contains("faults: 3 injected, 2 retries, 0 degraded transitions"));
    }

    #[test]
    fn read_line_appears_only_when_reads_happened() {
        let mut r = Report::new(IntegrationMode::CpuOnly);
        assert!(!r.to_string().contains("reads:"));
        r.reads = 5;
        r.read_bytes = 5 * 4096;
        r.read_cache_hits = 2;
        assert!(r
            .to_string()
            .contains("reads: 5 (0.0 MB), 2 cache hits, read_end 0.000 sim-s"));
    }

    #[test]
    fn display_mentions_mode_and_iops() {
        let mut r = Report::new(IntegrationMode::GpuForCompression);
        r.chunks = 10;
        r.bytes_in = 40960;
        r.reduction_end = SimTime::ZERO + SimDuration::from_millis(1);
        let s = r.to_string();
        assert!(s.contains("gpu-compression"));
        assert!(s.contains("IOPS"));
    }
}
