//! SSD hardware descriptions and calibrated presets.

use dr_des::SimDuration;

/// Deterministic fault-injection knobs for an SSD device.
///
/// All rates are probabilities in `[0, 1]` and default to zero; a device
/// with the default spec draws nothing from the fault stream and behaves
/// bit-identically to a device without the fault layer. Injected errors
/// are *transient* — the command fails without touching FTL state or
/// charging device time, so a retry is always safe; an injected bit flip
/// instead corrupts what a read returns, silently.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdFaultSpec {
    /// Probability a host page write fails with [`SsdError::WriteFault`].
    ///
    /// [`SsdError::WriteFault`]: crate::SsdError::WriteFault
    pub write_error_rate: f64,
    /// Probability a host command is rejected with [`SsdError::Busy`]
    /// (controller queue-full / firmware housekeeping window).
    ///
    /// [`SsdError::Busy`]: crate::SsdError::Busy
    pub busy_rate: f64,
    /// Probability a host page read fails with [`SsdError::ReadFault`]
    /// (media error the controller reports rather than silently passing
    /// through — contrast [`SsdFaultSpec::bit_flip_rate`]).
    ///
    /// [`SsdError::ReadFault`]: crate::SsdError::ReadFault
    pub read_error_rate: f64,
    /// Probability a host page read that succeeds returns the page with
    /// one bit flipped, *silently* (a post-ECC uncorrectable error, for
    /// integrity testing). Unlike the rates above it is not transient: the
    /// read is charged and counted like any other.
    pub bit_flip_rate: f64,
    /// Seed for the fault schedule's one RNG stream.
    pub seed: u64,
}

impl Default for SsdFaultSpec {
    fn default() -> Self {
        SsdFaultSpec {
            write_error_rate: 0.0,
            busy_rate: 0.0,
            read_error_rate: 0.0,
            bit_flip_rate: 0.0,
            seed: 0x55D_FA17,
        }
    }
}

impl SsdFaultSpec {
    /// True when every rate is zero (the fault stream is never drawn).
    pub fn is_inert(&self) -> bool {
        self.write_error_rate == 0.0
            && self.busy_rate == 0.0
            && self.read_error_rate == 0.0
            && self.bit_flip_rate == 0.0
    }

    fn validate(&self) {
        for (name, rate) in [
            ("write_error_rate", self.write_error_rate),
            ("busy_rate", self.busy_rate),
            ("read_error_rate", self.read_error_rate),
            ("bit_flip_rate", self.bit_flip_rate),
        ] {
            assert!(
                (0.0..=1.0).contains(&rate),
                "{name} must be a probability, got {rate}"
            );
        }
    }
}

/// An SSD hardware description.
///
/// The logical interface is page-granular: hosts read and write
/// [`SsdSpec::page_bytes`]-sized logical pages (4 KB, matching the paper's
/// chunk size for compression).
#[derive(Debug, Clone, PartialEq)]
pub struct SsdSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Logical/NAND page size in bytes.
    pub page_bytes: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// NAND channels.
    pub channels: u32,
    /// Dies per channel (each die programs/reads one page at a time).
    pub dies_per_channel: u32,
    /// Erase blocks per die, *including* over-provisioned blocks.
    pub blocks_per_die: u32,
    /// Fraction of physical capacity hidden as over-provisioning, `[0, 1)`.
    pub over_provisioning: f64,
    /// Page program (write) latency.
    pub t_prog: SimDuration,
    /// Page read latency.
    pub t_read: SimDuration,
    /// Block erase latency.
    pub t_erase: SimDuration,
    /// Controller/firmware overhead charged per host command.
    pub t_ctrl: SimDuration,
    /// Rated program/erase cycles per block (endurance budget).
    pub pe_cycle_limit: u32,
    /// Keep page contents for functional read-back (costs host RAM).
    pub store_data: bool,
    /// Fault injection (write/read errors, busy, silent bit flips);
    /// defaults to all-zero rates, i.e. no faults.
    pub faults: SsdFaultSpec,
}

impl SsdSpec {
    /// The paper's baseline device: Samsung SSD 830, 256 GB class, scaled
    /// to a small simulated capacity so experiments stay fast. Calibrated
    /// to ≈80 K sustained 4 KB write IOPS, the figure the paper quotes.
    pub fn samsung_830_256g() -> Self {
        SsdSpec {
            name: "Samsung SSD 830".to_owned(),
            page_bytes: 4096,
            pages_per_block: 128,
            channels: 8,
            dies_per_channel: 3,
            blocks_per_die: 256,
            over_provisioning: 0.09,
            t_prog: SimDuration::from_micros(280),
            t_read: SimDuration::from_micros(60),
            t_erase: SimDuration::from_millis(2),
            t_ctrl: SimDuration::from_micros(2),
            pe_cycle_limit: 3000,
            store_data: true,
            faults: SsdFaultSpec::default(),
        }
    }

    /// Same device with a larger simulated capacity and content retention
    /// disabled, for multi-gigabyte throughput sweeps.
    pub fn samsung_830_sweep() -> Self {
        SsdSpec {
            blocks_per_die: 4096,
            store_data: false,
            ..Self::samsung_830_256g()
        }
    }

    /// Total dies (the device's internal parallelism).
    pub fn total_dies(&self) -> u32 {
        self.channels * self.dies_per_channel
    }

    /// Logical (host-visible) capacity in pages, after over-provisioning.
    pub fn logical_pages(&self) -> u64 {
        let physical_pages =
            self.total_dies() as u64 * self.blocks_per_die as u64 * self.pages_per_block as u64;
        (physical_pages as f64 * (1.0 - self.over_provisioning)) as u64
    }

    /// Sanity-checks the parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-physical.
    pub fn validate(&self) {
        assert!(self.page_bytes > 0, "page size must be positive");
        assert!(self.pages_per_block > 0, "need pages per block");
        assert!(self.channels > 0, "need channels");
        assert!(self.dies_per_channel > 0, "need dies");
        assert!(self.blocks_per_die >= 4, "need at least 4 blocks per die");
        assert!(
            (0.0..1.0).contains(&self.over_provisioning),
            "over-provisioning must be in [0,1)"
        );
        assert!(self.pe_cycle_limit > 0, "endurance budget must be positive");
        self.faults.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        SsdSpec::samsung_830_256g().validate();
        SsdSpec::samsung_830_sweep().validate();
    }

    #[test]
    fn capacity_arithmetic() {
        let spec = SsdSpec::samsung_830_256g();
        assert_eq!(spec.total_dies(), 24);
        let physical_pages = 24u64 * 256 * 128;
        assert!(spec.logical_pages() < physical_pages);
        assert!(spec.logical_pages() > physical_pages * 85 / 100);
    }

    #[test]
    fn write_iops_ceiling_near_80k() {
        // Device-parallelism ceiling: dies / t_prog ≈ 85.7 K IOPS, which
        // lands sustained throughput near the paper's ~80 K after overheads.
        let spec = SsdSpec::samsung_830_256g();
        let ceiling = spec.total_dies() as f64 / spec.t_prog.as_secs_f64();
        assert!((80_000.0..95_000.0).contains(&ceiling), "ceiling {ceiling}");
    }

    #[test]
    #[should_panic(expected = "over-provisioning")]
    fn full_op_rejected() {
        let mut spec = SsdSpec::samsung_830_256g();
        spec.over_provisioning = 1.0;
        spec.validate();
    }

    #[test]
    fn default_faults_are_inert() {
        assert!(SsdFaultSpec::default().is_inert());
        assert!(SsdSpec::samsung_830_256g().faults.is_inert());
        assert!(SsdSpec::samsung_830_sweep().faults.is_inert());
    }

    #[test]
    fn nonzero_fault_rates_validate() {
        let mut spec = SsdSpec::samsung_830_256g();
        spec.faults.write_error_rate = 0.5;
        spec.faults.busy_rate = 1.0;
        spec.faults.read_error_rate = 0.01;
        spec.validate();
        assert!(!spec.faults.is_inert());
        let flips = SsdFaultSpec {
            bit_flip_rate: 0.5,
            ..SsdFaultSpec::default()
        };
        assert!(!flips.is_inert());
    }

    #[test]
    #[should_panic(expected = "bit_flip_rate")]
    fn out_of_range_bit_flip_rate_rejected() {
        let mut spec = SsdSpec::samsung_830_256g();
        spec.faults.bit_flip_rate = -0.5;
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "write_error_rate")]
    fn out_of_range_fault_rate_rejected() {
        let mut spec = SsdSpec::samsung_830_256g();
        spec.faults.write_error_rate = 1.5;
        spec.validate();
    }
}
