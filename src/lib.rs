//! # inline-dr — parallel inline data reduction for primary storage
//!
//! A reproduction of *"Parallelizing Inline Data Reduction Operations for
//! Primary Storage Systems"* (Ma & Park, PaCT 2017): an inline
//! deduplication + compression pipeline that spreads work across a
//! multi-core CPU and a GPU, targeted at SSD-based primary storage.
//!
//! This umbrella crate re-exports the workspace crates:
//!
//! * [`reduction`] — the integrated pipeline (the paper's contribution),
//! * [`binindex`] — bin-based parallel deduplication index,
//! * [`compress`] — the LZ codec and the GPU sub-chunk compressor,
//! * [`chunking`] — the fixed-size chunker,
//! * [`hashes`] — SHA-1 and fast hashing,
//! * [`gpu_sim`] — the simulated GPU device model,
//! * [`ssd_sim`] — the simulated SSD device model,
//! * [`workload`] — vdbench-style data stream generation,
//! * [`des`] — the simulated-clock kernel (time, resources, RNG),
//! * [`obs`] — zero-dependency observability: counters, gauges, latency
//!   histograms and JSON metric snapshots for every pipeline stage,
//! * [`check`] — model-based differential checker: seeded op sequences
//!   against an in-memory oracle, with shrinking and replay artifacts,
//! * [`cluster`] — sharded multi-node cluster: rendezvous-hash routing,
//!   incremental rebalancing, and per-node crash recovery.
//!
//! # Quickstart
//!
//! ```
//! use inline_dr::reduction::{Pipeline, PipelineConfig, IntegrationMode};
//! use inline_dr::workload::{StreamConfig, StreamGenerator};
//!
//! // Generate a small vdbench-style stream: dedup ratio 2.0, compression 2.0.
//! let stream = StreamGenerator::new(StreamConfig {
//!     total_bytes: 1 << 20,
//!     ..StreamConfig::default()
//! })
//! .generate();
//!
//! // Run it through the inline reduction pipeline.
//! let mut pipeline = Pipeline::new(PipelineConfig {
//!     mode: IntegrationMode::GpuForCompression,
//!     ..PipelineConfig::default()
//! });
//! let report = pipeline.run(&stream);
//! assert!(report.reduction_ratio() > 1.5);
//! ```

#![forbid(unsafe_code)]

pub use dr_binindex as binindex;
pub use dr_check as check;
pub use dr_chunking as chunking;
pub use dr_cluster as cluster;
pub use dr_compress as compress;
pub use dr_des as des;
pub use dr_gpu_sim as gpu_sim;
pub use dr_hashes as hashes;
pub use dr_obs as obs;
pub use dr_reduction as reduction;
pub use dr_ssd_sim as ssd_sim;
pub use dr_workload as workload;
