//! The metric lists (the same names `BENCHMARK.json` declares — a
//! self-test holds the two together) and how each value is derived from
//! the repetitions.

use crate::measure::{ReadClass, Rep};
use crate::stats;
use crate::sut::{self, KernelProbes, CHUNK};
use crate::workloads::BareReplay;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median the metric may worsen by before it is a
    /// regression. For the simulated metrics this is the tolerance across
    /// *seeds*; for one seed they repeat exactly and `compare` demands
    /// equality.
    pub bound: f64,
    /// Measured on the simulated clock: exact for a given seed.
    pub simulated: bool,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "ingest_mb_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "read_mb_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        simulated: false,
    },
    EndToEnd {
        name: "sim_write_kiops",
        unit: "KIOPS",
        better: Better::Higher,
        bound: 0.05,
        simulated: true,
    },
    EndToEnd {
        name: "sim_read_mean_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.05,
        simulated: true,
    },
    EndToEnd {
        name: "stored_per_user_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        simulated: true,
    },
];

use Better::{Higher, Lower};

/// `(name, unit, better)`; the layer is the crate / module name before
/// the last dot. A metric whose layer is not on a workload's path reads 0
/// there.
pub const PER_LAYER: [(&str, &str, Better); 55] = [
    // (a) kernel probes
    ("workload.synth_mb_s", "MB/s", Higher),
    ("chunking.fixed_mchunks_s", "Mchunks/s", Higher),
    ("hashes.sha1_mb_s", "MB/s", Higher),
    ("hashes.sha1_1t_mb_s", "MB/s", Higher),
    ("hashes.crc32c_mb_s", "MB/s", Higher),
    ("binindex.insert_mops_s", "Mops/s", Higher),
    ("binindex.lookup_mops_s", "Mops/s", Higher),
    ("binindex.probe_batch_mops_s", "Mops/s", Higher),
    ("compress.fastlz_mb_s", "MB/s", Higher),
    ("compress.fastlz_1t_mb_s", "MB/s", Higher),
    ("compress.gpu_functional_mb_s", "MB/s", Higher),
    ("compress.decompress_mb_s", "MB/s", Higher),
    ("compress.ratio", "ratio", Higher),
    ("pool.dispatch_us", "us", Lower),
    ("pool.spawn_join_us", "us", Lower),
    ("ssd-sim.write_page_ns", "ns", Lower),
    ("ssd-sim.read_page_ns", "ns", Lower),
    ("gpu-sim.launch_host_us", "us", Lower),
    // (b) in situ
    ("reduction.pipeline.wall_ns_per_chunk", "ns", Lower),
    ("reduction.pipeline.chunks_per_batch", "count", Higher),
    (
        "reduction.pipeline.stage_chunking_ns_per_chunk",
        "ns",
        Lower,
    ),
    ("reduction.pipeline.stage_hashing_ns_per_chunk", "ns", Lower),
    ("reduction.pipeline.stage_probe_ns_per_chunk", "ns", Lower),
    (
        "reduction.pipeline.stage_compress_ns_per_chunk",
        "ns",
        Lower,
    ),
    ("reduction.pipeline.stage_destage_ns_per_chunk", "ns", Lower),
    ("reduction.pipeline.unattributed_ns_per_chunk", "ns", Lower),
    ("reduction.alloc_per_chunk", "count", Lower),
    ("reduction.alloc_bytes_per_chunk", "B", Lower),
    ("binindex.hit_ratio", "ratio", Higher),
    ("binindex.buffer_hit_share", "ratio", Higher),
    ("reduction.destage.bytes_per_user_byte", "ratio", Lower),
    ("reduction.destage.partial_flushes", "count", Lower),
    ("ssd-sim.pages_written", "count", Lower),
    ("ssd-sim.write_amp", "ratio", Lower),
    ("gpu-sim.kernel_launches", "count", Lower),
    ("gpu-sim.chunks_per_launch", "count", Higher),
    ("gpu-sim.h2d_bytes_per_user_byte", "ratio", Lower),
    ("reduction.journal.appends", "count", Lower),
    ("reduction.journal.bytes_per_user_byte", "ratio", Lower),
    ("reduction.journal.replayed_records", "count", Lower),
    ("api.write_call_p50_us", "us", Lower),
    ("api.write_call_tail_us", "us", Lower),
    ("api.read_call_p50_us", "us", Lower),
    ("api.read_call_tail_us", "us", Lower),
    ("reduction.read.hot_cache_hit_ratio", "ratio", Higher),
    ("reduction.read.cold_cache_hit_ratio", "ratio", Higher),
    ("reduction.read.gpu_batches", "count", Higher),
    ("reduction.read.sim_call_tail_us", "sim-us", Lower),
    ("cluster.node_imbalance", "ratio", Lower),
    ("cluster.vs_bare_write_ratio", "ratio", Lower),
    ("cluster.vs_bare_read_ratio", "ratio", Lower),
    ("pool.tasks_per_batch", "count", Higher),
    ("pool.steals", "count", Lower),
    ("pool.batch_wall_mean_us", "us", Lower),
    ("obs.overhead_pct", "%", Lower),
];

/// One reported value with the spread of the per-repetition values it
/// is the median of (`n == 1` for values taken once).
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Measured {
    fn once(value: f64) -> Self {
        Measured {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    fn median_of(samples: &[f64]) -> Self {
        let (q1, q3) = stats::quartiles(samples);
        Measured {
            value: stats::median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean simulated service time of the read calls, µs. (The tail is a
/// per-layer metric: on single-block reads it is the one fixed miss cost
/// on every run, which tells two commits apart but not two runs.)
fn sim_read_mean_us(rep: &Rep) -> f64 {
    ratio(
        rep.sim_read_ns.iter().sum::<u64>() as f64 / 1e3,
        rep.sim_read_ns.len() as f64,
    )
}

/// Simulated service time at the supported tail of the read calls, µs.
fn sim_read_tail_us(rep: &Rep) -> f64 {
    let mut v = rep.sim_read_ns.clone();
    us(stats::median_and_tail(&mut v).1)
}

/// `VmHWM` of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// The end-to-end metrics, in `END_TO_END` order, from the timed
/// (untraced) repetitions. `synth_s` is the one-time input synthesis.
pub fn end_to_end(reps: &[Rep], synth_s: f64) -> Vec<Measured> {
    let last = reps.last().expect("at least one repetition");
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let setup = per_rep(&|r| synth_s + r.setup_s);
    // Throughput is bytes over the *median* time; its quartiles are the
    // per-repetition throughputs'.
    let ingest = per_rep(&|r| ratio(r.write_bytes as f64 / 1e6, r.write_s()));
    let read = per_rep(&|r| ratio(r.read_bytes as f64 / 1e6, r.read_s()));
    vec![
        Measured::median_of(&setup),
        Measured::median_of(&ingest),
        Measured::median_of(&read),
        Measured::once(peak_rss_mb()),
        Measured::once(last.sim.acked_iops() / 1e3),
        Measured::once(sim_read_mean_us(last)),
        Measured::once(ratio(
            last.sim.stored_bytes as f64,
            last.sim.bytes_in as f64,
        )),
    ]
}

/// SHA-1 over the `Report` counters and simulated metrics of one
/// repetition. Equal across repetitions and the traced run, or the
/// "observability never changes a simulated result" invariant is broken.
pub fn sim_digest(rep: &Rep) -> String {
    let canonical = format!(
        "{:?}|{:?}|{:?}|{}|{}",
        rep.sim,
        rep.sim_base,
        rep.sim_extra,
        sim_read_mean_us(rep),
        sim_read_tail_us(rep)
    );
    sut::sha1_hex(canonical.as_bytes())
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p50_tail_us(samples: &[u64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    let (p50, tail) = stats::median_and_tail(&mut v);
    (us(p50), us(tail))
}

/// What the traced run adds to the traced repetition itself.
pub struct TracedContext<'a> {
    pub probes: &'a KernelProbes,
    pub synth_mb_s: f64,
    /// Median timed seconds (write + read calls) of the untraced
    /// repetitions of the same run.
    pub untraced_call_s: f64,
    pub bare: Option<&'a BareReplay>,
}

/// The per-layer metrics, in `PER_LAYER` order, from the traced
/// repetition.
pub fn per_layer(rep: &Rep, cx: &TracedContext) -> Vec<(&'static str, f64)> {
    let p = cx.probes;
    let obs = &rep.obs;
    // The timed region's own chunk counts (set-up preloads excluded).
    let chunks = (rep.sim.chunks - rep.sim_base.chunks) as f64;
    let user_bytes = chunks * CHUNK as f64;
    let dedup_hits = (rep.sim.dedup_hits - rep.sim_base.dedup_hits) as f64;
    let buffer_hits = (rep.sim.buffer_hits - rep.sim_base.buffer_hits) as f64;
    let per_chunk = |hist: &str| ratio(obs.hist(hist).sum as f64, chunks);
    let wall = ratio(rep.write_s() * 1e9, chunks);
    let stage = [
        per_chunk("chunking.wall_ns"),
        per_chunk("hashing.wall_ns"),
        per_chunk("index.probe_wall_ns"),
        per_chunk("compress.wall_ns"),
        per_chunk("destage.wall_ns"),
    ];
    // Hashing overlaps the other stages on the pool: reported, not
    // subtracted.
    let unattributed = wall - stage[0] - stage[2] - stage[3] - stage[4];
    let launches = obs.counter("gpu.kernel_launches") as f64;
    let (write_p50, write_tail) = p50_tail_us(&rep.write_ns);
    let all_reads: Vec<u64> = rep.read_ns.iter().flatten().copied().collect();
    let (read_p50, read_tail) = p50_tail_us(&all_reads);
    let hit_ratio = |c: ReadClass| {
        ratio(
            rep.cache_hits[c as usize] as f64,
            rep.reads[c as usize] as f64,
        )
    };
    let node_max = rep.sim.node_chunks.iter().copied().max().unwrap_or(0) as f64;
    let node_mean = ratio(rep.sim.chunks as f64, rep.sim.node_chunks.len() as f64);
    let recovered = rep.sim_extra.iter().find(|(k, _)| *k == "records_replayed");
    let values = [
        ("workload.synth_mb_s", cx.synth_mb_s),
        ("chunking.fixed_mchunks_s", p.chunking_mchunks_s),
        ("hashes.sha1_mb_s", p.sha1_mb_s),
        ("hashes.sha1_1t_mb_s", p.sha1_1t_mb_s),
        ("hashes.crc32c_mb_s", p.crc32c_mb_s),
        ("binindex.insert_mops_s", p.index_insert_mops_s),
        ("binindex.lookup_mops_s", p.index_lookup_mops_s),
        ("binindex.probe_batch_mops_s", p.index_probe_batch_mops_s),
        ("compress.fastlz_mb_s", p.fastlz_mb_s),
        ("compress.fastlz_1t_mb_s", p.fastlz_1t_mb_s),
        ("compress.gpu_functional_mb_s", p.gpu_functional_mb_s),
        ("compress.decompress_mb_s", p.decompress_mb_s),
        ("compress.ratio", p.compress_ratio),
        ("pool.dispatch_us", p.pool_dispatch_us),
        ("pool.spawn_join_us", p.pool_spawn_join_us),
        ("ssd-sim.write_page_ns", p.ssd_write_page_ns),
        ("ssd-sim.read_page_ns", p.ssd_read_page_ns),
        ("gpu-sim.launch_host_us", p.gpu_launch_host_us),
        ("reduction.pipeline.wall_ns_per_chunk", wall),
        (
            "reduction.pipeline.chunks_per_batch",
            ratio(chunks, obs.counter("pipeline.batches") as f64),
        ),
        ("reduction.pipeline.stage_chunking_ns_per_chunk", stage[0]),
        ("reduction.pipeline.stage_hashing_ns_per_chunk", stage[1]),
        ("reduction.pipeline.stage_probe_ns_per_chunk", stage[2]),
        ("reduction.pipeline.stage_compress_ns_per_chunk", stage[3]),
        ("reduction.pipeline.stage_destage_ns_per_chunk", stage[4]),
        ("reduction.pipeline.unattributed_ns_per_chunk", unattributed),
        (
            "reduction.alloc_per_chunk",
            ratio(rep.allocs.0 as f64, chunks),
        ),
        (
            "reduction.alloc_bytes_per_chunk",
            ratio(rep.allocs.1 as f64, chunks),
        ),
        ("binindex.hit_ratio", ratio(dedup_hits, chunks)),
        ("binindex.buffer_hit_share", ratio(buffer_hits, dedup_hits)),
        (
            "reduction.destage.bytes_per_user_byte",
            ratio(
                (obs.counter("destage.data_pages") + obs.counter("destage.index_pages")) as f64
                    * CHUNK as f64,
                user_bytes,
            ),
        ),
        (
            "reduction.destage.partial_flushes",
            obs.counter("destage.partial_flushes") as f64,
        ),
        ("ssd-sim.pages_written", obs.counter("ssd.writes") as f64),
        ("ssd-sim.write_amp", rep.sim.write_amp),
        ("gpu-sim.kernel_launches", launches),
        (
            "gpu-sim.chunks_per_launch",
            ratio(
                obs.hist("compress.gpu_batch_chunks").sum as f64,
                obs.counter("compress.gpu_batches") as f64,
            ),
        ),
        (
            "gpu-sim.h2d_bytes_per_user_byte",
            ratio(obs.counter("compress.gpu_in_bytes") as f64, user_bytes),
        ),
        (
            "reduction.journal.appends",
            obs.counter("journal.appends") as f64,
        ),
        (
            "reduction.journal.bytes_per_user_byte",
            ratio(obs.counter("journal.bytes") as f64, user_bytes),
        ),
        (
            "reduction.journal.replayed_records",
            recovered.map_or(0.0, |(_, v)| *v as f64),
        ),
        ("api.write_call_p50_us", write_p50),
        ("api.write_call_tail_us", write_tail),
        ("api.read_call_p50_us", read_p50),
        ("api.read_call_tail_us", read_tail),
        (
            "reduction.read.hot_cache_hit_ratio",
            hit_ratio(ReadClass::Hot),
        ),
        (
            "reduction.read.cold_cache_hit_ratio",
            hit_ratio(ReadClass::Cold),
        ),
        (
            "reduction.read.gpu_batches",
            (rep.sim.gpu_decomp_batches - rep.sim_base.gpu_decomp_batches) as f64,
        ),
        ("reduction.read.sim_call_tail_us", sim_read_tail_us(rep)),
        (
            "cluster.node_imbalance",
            if rep.sim.node_chunks.len() > 1 {
                ratio(node_max, node_mean)
            } else {
                0.0
            },
        ),
        (
            "cluster.vs_bare_write_ratio",
            cx.bare.map_or(0.0, |b| ratio(rep.write_s(), b.write_s)),
        ),
        (
            "cluster.vs_bare_read_ratio",
            cx.bare.map_or(0.0, |b| ratio(rep.read_s(), b.read_s)),
        ),
        (
            "pool.tasks_per_batch",
            ratio(
                obs.counter("pool.tasks") as f64,
                obs.counter("pool.batches") as f64,
            ),
        ),
        ("pool.steals", obs.counter("pool.steals") as f64),
        (
            "pool.batch_wall_mean_us",
            ratio(
                obs.hist("pool.batch_wall_ns").sum as f64 / 1e3,
                obs.hist("pool.batch_wall_ns").count as f64,
            ),
        ),
        (
            "obs.overhead_pct",
            (ratio(rep.write_s() + rep.read_s(), cx.untraced_call_s) - 1.0) * 100.0,
        ),
    ];
    // Checked against `PER_LAYER` for length here and for names and
    // order by the `per_layer_names_line_up` test.
    let _: [(&str, f64); PER_LAYER.len()] = values;
    values.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(crate::workloads::NAMES);
        for name in names {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }

    /// The lists above and `BENCHMARK.json` say the same thing.
    #[test]
    fn lists_equal_benchmark_json() {
        use crate::json::{self, Json};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_owned();
        let section = |name: &str| doc.get(name).and_then(Json::as_arr).unwrap().to_vec();

        let workloads: Vec<String> = section("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);

        let declared: Vec<(String, String, String, f64)> = section("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<(String, String, String)> = section("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.as_str().into()))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn per_layer_names_line_up() {
        let cx = TracedContext {
            probes: &KernelProbes::default(),
            synth_mb_s: 0.0,
            untraced_call_s: 0.0,
            bare: None,
        };
        let emitted: Vec<&str> = per_layer(&Rep::default(), &cx)
            .iter()
            .map(|(name, _)| *name)
            .collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(emitted, declared);
    }

    #[test]
    fn bounds_fit_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn digest_moves_with_any_counter() {
        let mut a = Rep::default();
        a.sim.chunks = 10;
        let mut b = Rep::default();
        b.sim.chunks = 11;
        assert_ne!(sim_digest(&a), sim_digest(&b));
        assert_eq!(sim_digest(&a), sim_digest(&a));
    }
}
