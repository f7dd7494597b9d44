//! Group commit under power cuts: a journaled write stages its batch
//! commits and its map update and syncs the journal's open page once, and
//! the ack is that sync's grant end. Cutting power at every program
//! boundary of a short write sequence must keep exactly the acknowledged
//! prefix (see `cut_sweep`).

mod cut_sweep;

use dr_reduction::{IntegrationMode, PipelineConfig, Record, VolumeError, VolumeManager};

#[test]
fn every_cut_keeps_the_acknowledged_prefix_and_nothing_torn() {
    let cuts = cut_sweep::sweep(VolumeManager::write).unwrap_or_else(|e| panic!("{e}"));
    assert!(cuts > 150, "only {cuts} cut instants swept");
}
