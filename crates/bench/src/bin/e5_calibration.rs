//! E5 — Section 4(3): dummy-I/O calibration across platforms.
//!
//! The paper: *"because hardware specifications may be different on
//! different platforms, we cannot guarantee that this integration is
//! always right. Therefore, before assigning processors to each data
//! reduction operation, the performance of these integration methods is
//! compared using dummy I/O to determine the best fit for throughput."*
//!
//! This harness runs the calibration probe on three GPU profiles and
//! shows the chosen mode adapting to the hardware.

use dr_bench::{kiops, render_table};
use dr_gpu_sim::GpuSpec;
use dr_obs::{snapshots_to_json, ObsHandle};
use dr_reduction::{calibrate, PipelineConfig};
use dr_ssd_sim::SsdSpec;

fn main() {
    println!("E5: dummy-I/O calibration picks the integration mode per platform\n");
    let profiles = [
        GpuSpec::radeon_hd_7970(),
        GpuSpec::weak_igpu(),
        GpuSpec::strong_dgpu(),
    ];
    let mut rows = Vec::new();
    let mut snapshots = Vec::new();
    for gpu_spec in profiles {
        let name = gpu_spec.name.clone();
        let obs = ObsHandle::enabled(format!("e5/{name}"));
        let config = PipelineConfig {
            gpu_spec,
            ssd_spec: SsdSpec::samsung_830_sweep(),
            obs: obs.clone(),
            ..PipelineConfig::default()
        };
        let outcome = calibrate(&config, 512);
        snapshots.push(obs.snapshot().expect("enabled handle snapshots"));
        let mut cells = vec![name, outcome.best.to_string()];
        for (_, iops) in &outcome.scores {
            cells.push(kiops(*iops));
        }
        rows.push(cells);
    }
    println!(
        "{}",
        render_table(
            &[
                "platform",
                "chosen mode",
                "cpu-only",
                "gpu-dedup",
                "gpu-comp",
                "gpu-both"
            ],
            &rows
        )
    );
    println!("paper: the probe \"can ensure the best performance even if the target platform is different\"");
    dr_bench::finish("e5_calibration", &snapshots_to_json(&snapshots), None);
}
