//! Scenario: sizing the in-memory dedup index for a storage array.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```
//!
//! Reproduces the paper's index-memory arithmetic (Section 3.1(1)) and
//! extends it into a planning table: for each array capacity and chunk
//! size, how much RAM does the in-memory-only bin index need, and how much
//! does prefix truncation save? Then it demonstrates the trade the paper
//! accepts: bounding the index memory and *measuring* the missed-duplicate
//! rate on a real stream.

use inline_dr::binindex::{BinIndexConfig, MemoryModel};
use inline_dr::hashes::sha1_digest;
use inline_dr::reduction::{IntegrationMode, Pipeline, PipelineConfig};
use inline_dr::workload::{StreamConfig, StreamGenerator};
use std::collections::HashSet;

fn main() {
    println!("index memory by array capacity and chunk size (2-byte prefix truncation):\n");
    println!(
        "{:>10} | {:>10} | {:>12} | {:>10}",
        "capacity", "chunk", "index RAM", "saved"
    );
    println!("{}", "-".repeat(54));
    for tb in [1u64, 4, 16] {
        for chunk_kb in [4u64, 8, 16] {
            let m = MemoryModel::new(tb << 40, chunk_kb << 10, 2);
            let full = MemoryModel::new(tb << 40, chunk_kb << 10, 0);
            println!(
                "{:>8}TB | {:>8}KB | {:>9.1} GB | {:>7.2} GB",
                tb,
                chunk_kb,
                m.index_bytes() as f64 / (1u64 << 30) as f64,
                (full.index_bytes() - m.index_bytes()) as f64 / (1u64 << 30) as f64,
            );
        }
    }
    println!(
        "\npaper's worked example: 4TB / 8KB chunks = 16 GB of index; \
         a 2-byte prefix saves 1 GB ✓\n"
    );

    // The in-memory-only trade, measured: cap the index and count misses.
    let generator = StreamGenerator::new(StreamConfig {
        total_bytes: 8 << 20,
        dedup_ratio: 2.0,
        ..StreamConfig::default()
    });
    let stream = generator.generate();
    let true_unique = stream
        .chunks(4096)
        .map(sha1_digest)
        .collect::<HashSet<_>>()
        .len() as u64;

    println!("missed duplicates when the index memory is capped (8 MiB stream, dedup 2.0):\n");
    println!(
        "{:>12} | {:>12} | {:>10}",
        "entry budget", "extra stored", "miss rate"
    );
    println!("{}", "-".repeat(42));
    for budget in [u64::MAX, 2048, 1024, 512] {
        let mut pipeline = Pipeline::new(PipelineConfig {
            mode: IntegrationMode::CpuOnly,
            index: BinIndexConfig {
                max_entries: budget,
                ..BinIndexConfig::default()
            },
            ..PipelineConfig::default()
        });
        let report = pipeline.run(&stream);
        let missed = report.unique_chunks - true_unique;
        println!(
            "{:>12} | {:>12} | {:>9.1}%",
            if budget == u64::MAX {
                "unbounded".to_string()
            } else {
                budget.to_string()
            },
            missed,
            missed as f64 / report.chunks as f64 * 100.0,
        );
    }
    println!(
        "\nthe paper keeps the index in memory only and accepts the misses \
         (\"that is not a big deal\") — this table is the price, measured."
    );
}
