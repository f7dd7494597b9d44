//! Simulated-clock kernel for the `inline-dr` project.
//!
//! Every throughput experiment in the paper reproduction runs on a single
//! *simulated* clock so that results are deterministic and independent of the
//! host machine. This crate provides the pieces shared by all device models:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`Resource`] — a capacity-`c` server used to model CPU cores, GPU
//!   command queues, PCIe links and SSD channels; a simulation is a chain
//!   of its [`Grant`]s, there is no event queue,
//! * [`backoff`] — the bounded retry schedule device faults are met with,
//! * [`rng`] — a tiny deterministic RNG (SplitMix64 / xoshiro256**) so device
//!   models do not need an external dependency for reproducible noise,
//! * [`testkit`] — a seeded randomized-test harness the workspace's test
//!   suites use in place of an external property-testing framework.
//!
//! # Example
//!
//! Model two jobs contending for a single-slot resource:
//!
//! ```
//! use dr_des::{Resource, SimTime, SimDuration};
//!
//! let mut cpu = Resource::new("cpu", 1);
//! let a = cpu.acquire(SimTime::ZERO, SimDuration::from_micros(10));
//! let b = cpu.acquire(SimTime::ZERO, SimDuration::from_micros(5));
//! assert_eq!(a.start, SimTime::ZERO);
//! // The second job had to wait for the first to finish.
//! assert_eq!(b.start, a.end);
//! ```

#![forbid(unsafe_code)]

pub mod backoff;
pub mod resource;
pub mod rng;
pub mod testkit;
pub mod time;

pub use backoff::{ExponentialBackoff, Retried};
pub use resource::{Grant, Resource};
pub use rng::SplitMix64;
pub use time::{SimDuration, SimTime};
