//! A software SSD device model.
//!
//! The paper's baseline is "the throughput of a Samsung SSD 830" (~80 K
//! 4 KB-write IOPS) and its *motivation* is SSD write endurance: performing
//! data reduction in the background would first write all data verbatim and
//! rewrite it reduced — unacceptable extra program/erase wear — so reduction
//! must run *inline*. Reproducing either claim needs a device, not a disk,
//! hence this model:
//!
//! * NAND geometry and timing ([`SsdSpec`]): channels × dies, page
//!   program/read and block erase latencies, per-command controller
//!   overhead,
//! * a page-mapped FTL ([`ftl`]) with greedy garbage collection,
//!   over-provisioning, write-amplification and P/E-cycle accounting,
//! * a request path ([`SsdDevice`]) that schedules page operations onto
//!   per-die queues on the [`dr_des`] timeline,
//! * optional functional storage so integration tests can read back
//!   exactly what the reduction pipeline destaged.
//!
//! # Example
//!
//! ```
//! use dr_ssd_sim::{SsdDevice, SsdSpec};
//! use dr_des::SimTime;
//!
//! let mut ssd = SsdDevice::new(SsdSpec::samsung_830_256g());
//! let g = ssd.write_page(SimTime::ZERO, 0, &[7u8; 4096]).unwrap();
//! let (data, _) = ssd.read_page(g.end, 0).unwrap();
//! assert_eq!(data, vec![7u8; 4096]);
//! ```

#![forbid(unsafe_code)]

pub mod crash;
pub mod device;
pub mod error;
pub mod ftl;
pub mod spec;

pub use crash::{CrashReport, CrashSpec};
pub use device::{SsdDevice, SsdStats};
pub use error::SsdError;
pub use ftl::{Ftl, FtlStats};
pub use spec::{SsdFaultSpec, SsdSpec};
