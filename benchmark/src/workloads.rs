//! The four workloads. Names are a contract (`BENCHMARK.json`, README.md,
//! later issues cite them); why each exists is in README.md.
//!
//! A workload synthesizes its inputs and its expected-content model once
//! (`prepare`, before any timing) and then runs any number of
//! repetitions of a fixed work unit, each on a freshly built system.

use std::time::Instant;

use crate::measure::{
    timed_flush, timed_read, timed_write, verify_blocks, Hooks, ReadClass, Rep, Rng,
};
use crate::sut::{
    self, Array, BarePipeline, ClusterSut, Mode, Profile, Store, SysConfig, Zipf, CHUNK,
};
use crate::trace::Recorder;

pub const NAMES: [&str; 4] = [
    "bulk_ingest",
    "dedup_ingest",
    "read_mix",
    "cluster_small_ops",
];

// Work units: sized so the timed calls of one repetition take 1.3-2.3 s on
// the 2-core reference host, and never under 1 s. The driver allows ~35 s
// per invocation for synthesis, a warm-up and seven timed repetitions, so
// where the issue's prototype sizes (1 GiB streams, a 256 MiB image,
// 131 072 + 1 048 576 cluster ops) would not fit, the work unit is cut as
// the issue allows; the repetition count is not.
const MIB: u64 = 1 << 20;
const BULK_STREAM_BYTES: u64 = 384 * MIB;
const DEDUP_STREAM_BYTES: u64 = 768 * MIB;
const READ_MIX_IMAGE_BYTES: u64 = 128 * MIB;
const READ_MIX_OPS: usize = 16_384;
const CLUSTER_WRITES: usize = 81_920;
const CLUSTER_READS: usize = 524_288;
/// `--smoke` divides every work unit by this.
const SMOKE_DIVISOR: u64 = 64;

/// `Pipeline::run` slice of `bulk_ingest`.
const BULK_WRITE_BYTES: usize = 8 << 20;
/// `VolumeManager::write` size of `dedup_ingest` and the `read_mix` preload.
const ARRAY_WRITE_BYTES: usize = 128 << 10;
/// Blocks per sequential read-back / cold scan call: over `gpu_min_batch`
/// (16), so cold batches take the modeled GPU decompression arm.
const COLD_BATCH: u64 = 32;
/// Blocks per hot zipf read call: under `gpu_min_batch`.
const HOT_BATCH: usize = 8;
/// Blocks the hot reads draw from: as many as the default `ReadCache`
/// holds, so the hot set fits it (until cold scans and overwrites evict).
const HOT_SET_BLOCKS: u64 = 256;
const CLUSTER_NODES: usize = 4;

pub struct Params {
    pub seed: u64,
    pub smoke: bool,
    pub hooks: Hooks,
}

impl Params {
    fn unit(&self, full: u64) -> u64 {
        if self.smoke {
            full / SMOKE_DIVISOR
        } else {
            full
        }
    }
}

/// The cluster workload's traced-run extra: the same op list replayed
/// into a bare `VolumeManager`.
#[derive(Debug, Default)]
pub struct BareReplay {
    pub write_s: f64,
    pub read_s: f64,
}

pub trait Workload {
    /// One repetition of the work unit on a fresh system. `observed`
    /// attaches the program's live metric registry.
    fn repetition(&self, observed: bool, rec: &mut Recorder) -> Rep;

    /// Bytes `prepare` synthesized through the program's generators, for
    /// `workload.synth_mb_s`.
    fn synth_bytes(&self) -> u64;

    /// Whole chunks of this workload's own data for the kernel probes.
    fn probe_sample(&self) -> &[u8];

    /// Runs the op list against a bare array too and checks it reads
    /// back identically (cluster workload only). Verification results
    /// land in `rep`.
    fn bare_replay(&self, _rep: &mut Rep, _rec: &mut Recorder) -> Option<BareReplay> {
        None
    }
}

/// Builds the named workload's inputs and model from `params.seed`.
pub fn prepare(name: &str, params: &Params) -> Option<Box<dyn Workload>> {
    match name {
        "bulk_ingest" => Some(Box::new(Ingest::bulk(params))),
        "dedup_ingest" => Some(Box::new(Ingest::dedup(params))),
        "read_mix" => Some(Box::new(ReadMix::new(params))),
        "cluster_small_ops" => Some(Box::new(ClusterOps::new(params))),
        _ => None,
    }
}

fn sys_config(mode: Mode, journal: bool, integrity: bool, observed: bool) -> SysConfig {
    SysConfig {
        mode,
        workers: sut::pool_workers(),
        journal,
        integrity,
        observed,
    }
}

/// Times building a system; a constructor error is a failed operation
/// and ends the repetition.
fn build<S>(
    rep: &mut Rep,
    rec: &mut Recorder,
    make: impl FnOnce() -> Result<S, String>,
) -> Option<S> {
    rec.enter("setup");
    let start = Instant::now();
    let sys = make();
    rep.setup_s += start.elapsed().as_secs_f64();
    rec.exit();
    rep.attempted += 1;
    match sys {
        Ok(sys) => Some(sys),
        Err(e) => {
            rep.fail(|| format!("set-up: {e}"));
            None
        }
    }
}

/// Closes a repetition: final counters, the registry snapshot, and the
/// system's teardown under its own span.
fn finish(rep: &mut Rep, rec: &mut Recorder, sys: Box<dyn Store + '_>) {
    rep.sim = sys.counters();
    rep.obs = sys.layer_obs();
    rec.enter("teardown");
    drop(sys);
    rec.exit();
}

/// Sequential read-back of `0..blocks` in `COLD_BATCH` calls, each block
/// checked against `expected(block)`.
fn read_back<'m>(
    rep: &mut Rep,
    rec: &mut Recorder,
    sys: &mut dyn Store,
    blocks: u64,
    timed: bool,
    expected: impl Fn(u64) -> (&'m [u8], bool),
) {
    for start in (0..blocks).step_by(COLD_BATCH as usize) {
        let batch: Vec<u64> = (start..(start + COLD_BATCH).min(blocks)).collect();
        if timed {
            timed_read(rep, rec, sys, ReadClass::Cold, start, &batch, |i| {
                expected(batch[i])
            });
        } else {
            rep.attempted += 1;
            match sys.read_batch(&batch) {
                Ok(got) => verify_blocks(rep, &batch, &got, |i| expected(batch[i])),
                Err(e) => rep.fail(|| format!("sweep read at block {start}: {e}")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// bulk_ingest / dedup_ingest: a long stream in, then all of it back out.

enum Front {
    Pipeline,
    Array,
}

struct Ingest {
    stream: Vec<u8>,
    front: Front,
    mode: Mode,
    write_bytes: usize,
    corrupt_block: Option<u64>,
}

impl Ingest {
    fn new(
        p: &Params,
        profile: Profile,
        bytes: u64,
        front: Front,
        mode: Mode,
        write_bytes: usize,
    ) -> Self {
        let stream = sut::synth_stream(profile, p.unit(bytes), p.seed);
        let blocks = (stream.len() / CHUNK) as u64;
        Ingest {
            front,
            mode,
            write_bytes,
            corrupt_block: p.hooks.corrupt_model.then_some(blocks / 2),
            stream,
        }
    }

    fn bulk(p: &Params) -> Self {
        Ingest::new(
            p,
            Profile::Paper,
            BULK_STREAM_BYTES,
            Front::Pipeline,
            Mode::GpuCompression,
            BULK_WRITE_BYTES,
        )
    }

    fn dedup(p: &Params) -> Self {
        Ingest::new(
            p,
            Profile::Vdi,
            DEDUP_STREAM_BYTES,
            Front::Array,
            Mode::CpuOnly,
            ARRAY_WRITE_BYTES,
        )
    }
}

impl Workload for Ingest {
    fn repetition(&self, observed: bool, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::default();
        let blocks = (self.stream.len() / CHUNK) as u64;
        let config = sys_config(self.mode, false, false, observed);
        let Some(mut sys) = build(&mut rep, rec, || -> Result<Box<dyn Store>, String> {
            Ok(match self.front {
                Front::Pipeline => Box::new(BarePipeline::new(config)),
                Front::Array => Box::new(Array::new(config, blocks)?),
            })
        }) else {
            return rep;
        };

        rec.enter("ingest");
        for (i, slice) in self.stream.chunks(self.write_bytes).enumerate() {
            let block = (i * self.write_bytes / CHUNK) as u64;
            timed_write(&mut rep, rec, sys.as_mut(), i as u64, block, slice);
        }
        timed_flush(&mut rep, rec, sys.as_mut());
        rec.exit();

        rec.enter("read_back");
        read_back(&mut rep, rec, sys.as_mut(), blocks, true, |b| {
            let at = b as usize * CHUNK;
            (&self.stream[at..at + CHUNK], self.corrupt_block == Some(b))
        });
        rec.exit();

        finish(&mut rep, rec, sys);
        rep
    }

    fn synth_bytes(&self) -> u64 {
        self.stream.len() as u64
    }

    fn probe_sample(&self) -> &[u8] {
        &self.stream
    }
}

// ---------------------------------------------------------------------
// read_mix: hot and cold reads beside small overwrites, then a power cut.

enum MixOp {
    /// A read call and, per block, where the model says its content
    /// comes from at that point of the schedule.
    Read {
        class: ReadClass,
        blocks: Vec<u64>,
        sources: Vec<u32>,
    },
    /// Overwrite `data.len() / CHUNK` blocks at `block` with fresh,
    /// never-before-seen content.
    Overwrite { block: u64, data: Vec<u8> },
}

/// Model source id of a block still holding its preloaded image content;
/// any other id is the index of the `MixOp::Overwrite` that last wrote it.
const FROM_IMAGE: u32 = u32::MAX;

struct ReadMix {
    image: Vec<u8>,
    ops: Vec<MixOp>,
    /// Per block, the model after the whole schedule.
    final_sources: Vec<u32>,
    corrupt_block: Option<u64>,
    cut_early: bool,
    torn_seed: u64,
}

impl ReadMix {
    fn new(p: &Params) -> Self {
        let image = sut::synth_stream(Profile::Image, p.unit(READ_MIX_IMAGE_BYTES), p.seed);
        let blocks = (image.len() / CHUNK) as u64;
        assert!(blocks.is_power_of_two(), "rank scattering needs 2^k blocks");
        let n_ops = p.unit(READ_MIX_OPS as u64) as usize;
        let mut rng = Rng::new(p.seed ^ 0x004D_4958);
        let mut hot = Zipf::new(HOT_SET_BLOCKS.min(blocks) as usize, p.seed ^ 0x0048_4F54);
        let mut offsets = Zipf::new(blocks as usize, p.seed ^ 0x004F_4646);
        // Zipf ranks are scattered over the volume by an odd multiplier
        // (a bijection mod 2^k), so hot blocks are not neighbours. Hot
        // reads and overwrite offsets share the mapping: the blocks read
        // most are also the ones rewritten most.
        let scatter = |rank: usize| (rank as u64).wrapping_mul(0x9E37_79B1) % blocks;
        let mut sources = vec![FROM_IMAGE; blocks as usize];
        let mut cursor = 0u64;
        let mut fresh = p.seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1;
        let mut ops = Vec::with_capacity(n_ops);
        for i in 0..n_ops {
            let draw = rng.below(100);
            // The last op is always an overwrite, so `--cut-early` has a
            // final acknowledged write to lose.
            if draw < 30 || i + 1 == n_ops {
                let len = 1 + rng.below(8);
                let block = scatter(offsets.sample()).min(blocks - len);
                let mut data = Vec::with_capacity(len as usize * CHUNK);
                for _ in 0..len {
                    fresh = fresh.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    data.extend_from_slice(&sut::synth_block(fresh));
                }
                for b in block..block + len {
                    sources[b as usize] = ops.len() as u32;
                }
                ops.push(MixOp::Overwrite { block, data });
                continue;
            }
            let (class, read_blocks): (_, Vec<u64>) = if draw < 65 {
                let batch = (0..HOT_BATCH).map(|_| scatter(hot.sample())).collect();
                (ReadClass::Hot, batch)
            } else {
                let start = cursor;
                cursor = (cursor + COLD_BATCH) % blocks;
                (ReadClass::Cold, (start..start + COLD_BATCH).collect())
            };
            ops.push(MixOp::Read {
                class,
                sources: read_blocks.iter().map(|&b| sources[b as usize]).collect(),
                blocks: read_blocks,
            });
        }
        ReadMix {
            image,
            ops,
            final_sources: sources,
            corrupt_block: p.hooks.corrupt_model.then_some(blocks / 2),
            cut_early: p.hooks.cut_early,
            torn_seed: p.seed,
        }
    }

    /// The model's bytes for `block` given its source id.
    fn content(&self, block: u64, source: u32) -> (&[u8], bool) {
        let bytes = if source == FROM_IMAGE {
            let at = block as usize * CHUNK;
            &self.image[at..at + CHUNK]
        } else {
            let MixOp::Overwrite { block: first, data } = &self.ops[source as usize] else {
                unreachable!("sources only name overwrites");
            };
            let at = (block - first) as usize * CHUNK;
            &data[at..at + CHUNK]
        };
        (bytes, self.corrupt_block == Some(block))
    }
}

impl Workload for ReadMix {
    fn repetition(&self, observed: bool, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::default();
        let blocks = (self.image.len() / CHUNK) as u64;
        let config = sys_config(Mode::GpuCompression, true, true, observed);
        let Some(mut sys) = build(&mut rep, rec, || {
            // The preload is set-up: untimed, but its calls must succeed.
            let mut sys = Array::new(config, blocks)?;
            for (i, slice) in self.image.chunks(ARRAY_WRITE_BYTES).enumerate() {
                sys.write((i * ARRAY_WRITE_BYTES / CHUNK) as u64, slice)?;
            }
            sys.flush()?;
            Ok(sys)
        }) else {
            return rep;
        };

        // In-situ numbers describe the timed schedule, not the preload.
        rep.sim_base = sys.counters();
        let obs_base = sys.layer_obs();

        rec.enter("mix");
        // Acknowledgement instants of the last two overwrites.
        let mut acks = [sys.last_ack_ns(); 2];
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                MixOp::Overwrite { block, data } => {
                    timed_write(&mut rep, rec, &mut sys, i as u64, *block, data);
                    acks = [acks[1], sys.last_ack_ns()];
                }
                MixOp::Read {
                    class,
                    blocks,
                    sources,
                } => timed_read(&mut rep, rec, &mut sys, *class, i as u64, blocks, |j| {
                    self.content(blocks[j], sources[j])
                }),
            }
        }
        timed_flush(&mut rep, rec, &mut sys);
        rec.exit();
        // The recovered report restarts from the journal, so the
        // simulated metrics are read before the power cut.
        let before_cut = sys.counters();
        rep.obs = sys.layer_obs().since(&obs_base);

        // Every write acknowledged by `last_ack` must survive a power cut
        // at that instant. `--cut-early` cuts one overwrite sooner while
        // the model below still expects the last one.
        let cut_at = if self.cut_early {
            acks[0]
        } else {
            sys.last_ack_ns()
        };
        rec.enter("recover");
        let recovery = sys.crash_and_recover(cut_at, self.torn_seed);
        rec.exit();
        rep.attempted += 1;
        match recovery {
            Err(e) => rep.fail(|| format!("crash_and_recover: {e}")),
            Ok(r) => {
                rep.sim_extra = vec![
                    ("records_replayed", r.records_replayed),
                    ("chunks_recovered", r.chunks_recovered),
                ];
                rec.enter("durability_sweep");
                read_back(&mut rep, rec, &mut sys, blocks, false, |b| {
                    self.content(b, self.final_sources[b as usize])
                });
                rec.exit();
            }
        }

        rec.enter("teardown");
        drop(sys);
        rec.exit();
        rep.sim = before_cut;
        rep
    }

    fn synth_bytes(&self) -> u64 {
        self.image.len() as u64
    }

    fn probe_sample(&self) -> &[u8] {
        &self.image
    }
}

// ---------------------------------------------------------------------
// cluster_small_ops: single-block writes, then single-block reads.

struct ClusterOps {
    volume_blocks: u64,
    /// Distinct payloads of the population (it rewrites a bounded set of
    /// versions), concatenated; writes index into it.
    payloads: Vec<u8>,
    /// `(block, payload index)` in issue order.
    writes: Vec<(u64, u32)>,
    /// Blocks to read, zipf over the touched blocks.
    reads: Vec<u64>,
    /// Per block, the payload the model expects after all writes.
    model: Vec<u32>,
    synth_bytes: u64,
    corrupt_block: Option<u64>,
}

const UNWRITTEN: u32 = u32::MAX;

impl ClusterOps {
    fn new(p: &Params) -> Self {
        let n_writes = p.unit(CLUSTER_WRITES as u64) as usize;
        let n_reads = p.unit(CLUSTER_READS as u64) as usize;
        let (volume_blocks, generated) = sut::population_writes(256, 256, 8, n_writes, p.seed);
        let synth_bytes = (generated.len() * CHUNK) as u64;
        let mut payloads = Vec::new();
        let mut interned = std::collections::HashMap::new();
        let mut model = vec![UNWRITTEN; volume_blocks as usize];
        let mut writes = Vec::with_capacity(n_writes);
        for (block, data) in generated {
            let next = interned.len() as u32;
            let id = *interned.entry(data).or_insert_with_key(|data| {
                payloads.extend_from_slice(data);
                next
            });
            model[block as usize] = id;
            writes.push((block, id));
        }
        let touched: Vec<u64> = (0..volume_blocks)
            .filter(|&b| model[b as usize] != UNWRITTEN)
            .collect();
        let mut zipf = Zipf::new(touched.len(), p.seed ^ 0x5245_4144);
        let reads: Vec<u64> = (0..n_reads).map(|_| touched[zipf.sample()]).collect();
        ClusterOps {
            volume_blocks,
            payloads,
            writes,
            corrupt_block: p.hooks.corrupt_model.then(|| reads[0]),
            reads,
            model,
            synth_bytes,
        }
    }

    fn payload(&self, id: u32) -> &[u8] {
        let at = id as usize * CHUNK;
        &self.payloads[at..at + CHUNK]
    }

    /// Writes, flush, reads — the op list, against any front door.
    fn drive(&self, rep: &mut Rep, rec: &mut Recorder, sys: &mut dyn Store) {
        rec.enter("writes");
        for (i, &(block, id)) in self.writes.iter().enumerate() {
            timed_write(rep, rec, sys, i as u64, block, self.payload(id));
        }
        timed_flush(rep, rec, sys);
        rec.exit();
        rec.enter("reads");
        for (i, &block) in self.reads.iter().enumerate() {
            timed_read(rep, rec, sys, ReadClass::Hot, i as u64, &[block], |_| {
                (
                    self.payload(self.model[block as usize]),
                    self.corrupt_block == Some(block),
                )
            });
        }
        rec.exit();
    }
}

impl Workload for ClusterOps {
    fn repetition(&self, observed: bool, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::default();
        let config = sys_config(Mode::GpuBoth, true, false, observed);
        let Some(mut sys) = build(&mut rep, rec, || {
            ClusterSut::new(config, CLUSTER_NODES, self.volume_blocks)
        }) else {
            return rep;
        };
        self.drive(&mut rep, rec, &mut sys);
        finish(&mut rep, rec, Box::new(sys));
        rep
    }

    fn synth_bytes(&self) -> u64 {
        self.synth_bytes
    }

    fn probe_sample(&self) -> &[u8] {
        &self.payloads
    }

    fn bare_replay(&self, rep: &mut Rep, rec: &mut Recorder) -> Option<BareReplay> {
        // Same mode, journal and total pool width as the cluster; every
        // read is checked against the same model, which is e9's
        // routing-invisibility parity (both must read back identically).
        let config = sys_config(Mode::GpuBoth, true, false, false);
        let mut bare = Rep::default();
        rec.enter("bare_replay");
        if let Some(mut sys) = build(&mut bare, rec, || Array::new(config, self.volume_blocks)) {
            self.drive(&mut bare, rec, &mut sys);
        }
        rec.exit();
        rep.attempted += bare.attempted;
        rep.failed += bare.failed;
        rep.failures.append(&mut bare.failures);
        Some(BareReplay {
            write_s: bare.write_s(),
            read_s: bare.read_s(),
        })
    }
}
