//! E6 — the paper's Section-1 motivation, quantified: inline vs
//! background reduction vs no reduction, measured in NAND wear.
//!
//! The paper argues background reduction *"generates more write I/O than
//! systems without the data reduction operations … not applicable to
//! SSD-based storage systems due to write endurance problems"*, which is
//! why reduction must run inline despite its CPU cost. This harness runs
//! one stream through all three systems on identical SSD models and
//! reports the page programs and endurance each consumed.

use dr_bench::render_table;
use dr_obs::ObsHandle;
use dr_reduction::compare_endurance;
use dr_ssd_sim::SsdSpec;
use dr_workload::{StreamConfig, StreamGenerator};

fn main() {
    let blocks: Vec<Vec<u8>> = StreamGenerator::new(StreamConfig {
        total_bytes: 16 << 20,
        dedup_ratio: 2.0,
        compression_ratio: 2.0,
        ..StreamConfig::default()
    })
    .blocks()
    .collect();

    let spec = SsdSpec {
        store_data: true,
        blocks_per_die: 1024,
        ..SsdSpec::samsung_830_256g()
    };
    let obs = ObsHandle::enabled("e6/inline");
    let cmp = compare_endurance(&blocks, &spec, &obs);

    println!("E6: NAND wear for 16 MiB of writes (dedup 2.0 x compression 2.0)\n");
    let base = cmp.inline_nand_writes as f64;
    let rows = vec![
        vec![
            "inline reduction".into(),
            cmp.inline_nand_writes.to_string(),
            "1.00x".into(),
        ],
        vec![
            "no reduction".into(),
            cmp.none_nand_writes.to_string(),
            format!("{:.2}x", cmp.none_nand_writes as f64 / base),
        ],
        vec![
            "background reduction".into(),
            cmp.background_nand_writes.to_string(),
            format!("{:.2}x", cmp.background_nand_writes as f64 / base),
        ],
    ];
    println!(
        "{}",
        render_table(&["system", "NAND page programs", "wear vs inline"], &rows)
    );
    println!(
        "paper: background reduction writes more than no reduction at all — hence inline.\n\
         measured: background causes {:.1}x the wear of inline and exceeds the no-reduction baseline: {}",
        cmp.background_penalty(),
        cmp.background_nand_writes > cmp.none_nand_writes
    );
    // The inline system's stage latencies + destage/SSD write counters.
    let snap = obs.snapshot().expect("enabled handle snapshots");
    dr_bench::finish("e6_endurance", &snap.to_json(), None);
}
