//! The integrated inline data reduction pipeline — the paper's contribution.
//!
//! [`Pipeline`] wires every substrate together along the workflow of the
//! paper's Figure 1:
//!
//! ```text
//! write stream ──► chunk ──► hash ──► GPU indexing (if GPU assigned)
//!                                          │ miss / not resident
//!                                          ▼
//!                                    bin buffer ──► bin tree
//!                                          │ miss (unique chunk)
//!                                          ▼
//!                           compress (CPU codec | GPU sub-chunk + CPU refine)
//!                                          │
//!                              bin-buffer insert ──full──► flush:
//!                                          │            sequential SSD write
//!                                          ▼            + GPU bin update
//!                                 destage packed pages ──► SSD
//! ```
//!
//! Four [`IntegrationMode`]s assign the GPU to neither, one, or both data
//! reduction operations; [`calibrate()`] reproduces the paper's *dummy-I/O*
//! probe that picks the best mode for the platform at hand.
//!
//! Execution is *functionally real* (chunks are hashed with SHA-1,
//! duplicates are found through the bin index, unique chunks are really
//! compressed and destaged to the SSD model, and everything round-trips),
//! while *time* is simulated: CPU stage costs come from the calibrated
//! [`CpuModel`], GPU and SSD costs from their device models, all on the
//! `dr-des` timeline. See `DESIGN.md` §7.
//!
//! # Example
//!
//! ```
//! use dr_reduction::{IntegrationMode, Pipeline, PipelineConfig};
//! use dr_workload_doc_stub::stream_1mib;
//!
//! let mut pipeline = Pipeline::new(PipelineConfig {
//!     mode: IntegrationMode::GpuForCompression,
//!     ..PipelineConfig::default()
//! });
//! let report = pipeline.run(&stream_1mib());
//! assert!(report.reduction_ratio() > 1.5);
//! assert!(report.iops() > 0.0);
//! # mod dr_workload_doc_stub {
//! #     pub fn stream_1mib() -> Vec<u8> {
//! #         // dedup-able, compressible synthetic stream
//! #         let mut out = Vec::new();
//! #         for i in 0..256u32 {
//! #             let mut block = vec![0u8; 4096];
//! #             let tag = (i % 128).to_le_bytes();
//! #             block[..4].copy_from_slice(&tag);
//! #             out.extend_from_slice(&block);
//! #         }
//! #         out
//! #     }
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod background;
pub mod calibrate;
pub mod cpu_model;
mod degrade;
mod destage;
pub mod error;
mod ingest;
pub mod journal;
pub mod pipeline;
mod read;
mod recovery;
pub mod report;
pub mod volume;

/// The power-cut sweep of `tests/group_commit_cuts.rs`, here for the unit
/// test that plants a mutant only the crate can reach.
#[cfg(test)]
#[path = "../tests/cut_sweep/mod.rs"]
mod cut_sweep;

pub use background::{
    compare_endurance, compare_endurance_with_obs, BackgroundReducer, BackgroundReport,
    EnduranceComparison,
};
pub use calibrate::{calibrate, CalibrationOutcome};
pub use cpu_model::CpuModel;
pub use error::ReadError;
pub use ingest::HashedChunks;
pub use journal::{Journal, JournalError, Record};
pub use pipeline::{IntegrationMode, Pipeline, PipelineConfig, RecoverError, RecoveryOutcome};
pub use report::Report;
pub use volume::{VolumeError, VolumeManager, Volumes};
