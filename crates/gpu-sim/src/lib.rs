//! A software GPU device model.
//!
//! The paper offloads indexing and compression kernels to a Radeon HD 7970.
//! This environment has no GPU, so `dr-gpu-sim` substitutes a device model
//! that preserves every architectural effect the paper's design reacts to
//! (see `DESIGN.md` §2):
//!
//! * **kernel-launch latency** — a fixed floor on every launch; the reason
//!   CPU indexing beats GPU indexing 4.16–5.45× for small batches,
//! * **PCIe transfers** — data must be staged into device memory through a
//!   copy engine with latency + bandwidth costs,
//! * **SIMT lockstep execution** — wavefronts pay for their slowest lane,
//!   and divergent branching adds a reconvergence penalty; the reason the
//!   paper lays GPU bins out as *linear tables* instead of trees,
//! * **memory coalescing** — uncoalesced global-memory traffic is charged a
//!   bandwidth de-rating factor,
//! * **massive parallelism** — compute time scales down with compute units
//!   until the roofline (memory bandwidth) is hit.
//!
//! Kernels *execute functionally on the host* — their results are bit-exact
//! real computations — while the model charges simulated time on the
//! [`dr_des`] timeline. Kernel implementations live with their subsystems
//! (`dr-binindex`, `dr-compress`); this crate provides the device.
//!
//! # Example
//!
//! ```
//! use dr_gpu_sim::{GpuDevice, GpuSpec, LaunchConfig, WorkItemCost};
//! use dr_des::SimTime;
//!
//! let mut gpu = GpuDevice::new(GpuSpec::radeon_hd_7970());
//! let buf = gpu.alloc(4096).unwrap();
//! let grant = gpu.write_buffer(SimTime::ZERO, buf, 0, &[1u8; 4096]).unwrap();
//!
//! // Launch 1024 uniform work items of 100 cycles each.
//! let report = gpu.launch(
//!     grant.end,
//!     LaunchConfig::named("example"),
//!     &vec![WorkItemCost::compute(100); 1024],
//! ).unwrap();
//! assert!(report.grant.end > grant.end);
//! ```

#![forbid(unsafe_code)]

pub mod device;
pub mod error;
pub mod memory;
pub mod occupancy;
pub mod spec;
pub mod timing;

pub use device::{DryRun, GpuDevice, GpuStats, LaunchConfig, LaunchReport};
pub use error::GpuError;
pub use memory::BufferId;
pub use occupancy::{occupancy_factor, CuBudget, KernelResources};
pub use spec::{GpuFaultSpec, GpuSpec, PcieSpec};
pub use timing::{MemAccess, WorkItemCost};
