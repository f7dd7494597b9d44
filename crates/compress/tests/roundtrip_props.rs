//! Randomized tests: every codec is lossless on arbitrary inputs.

use dr_compress::fastlz::tokenize_region;
use dr_compress::frame::{self, Frame};
use dr_compress::token::{
    decode_stream, emit_literals, emit_match, MAX_LITERAL_RUN, MAX_MATCH, MIN_MATCH,
};
use dr_compress::{Codec, CodecError, FastLz, GpuCompressor, GpuCompressorConfig, Token};
use dr_des::testkit::{self, Cases};
use dr_des::SimTime;
use dr_gpu_sim::{GpuDevice, GpuSpec, MemAccess, WorkItemCost};
use dr_pool::WorkerPool;
use dr_workload::synthesize_block;

#[test]
fn fastlz_round_trips() {
    Cases::new("fastlz_round_trips", 0xC02_0001).run(128, |rng| {
        let data = testkit::vec_u8(rng, 0, 8192);
        let codec = FastLz::new();
        let packed = codec.compress(&data);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    });
}

#[test]
fn gpu_subchunk_round_trips() {
    Cases::new("gpu_subchunk_round_trips", 0xC02_0003).run(128, |rng| {
        let data = testkit::vec_u8(rng, 0, 8192);
        let threads = testkit::usize_in(rng, 1, 15);
        let history = testkit::usize_in(rng, 1, 1023);
        let comp = GpuCompressor::new(GpuCompressorConfig {
            threads_per_chunk: threads,
            history,
        });
        let block = comp.compress_functional(&data);
        assert_eq!(comp.decompress(&block).unwrap(), data);
    });
}

#[test]
fn fastlz_round_trips_low_entropy() {
    Cases::new("fastlz_round_trips_low_entropy", 0xC02_0004).run(128, |rng| {
        // Low-entropy inputs exercise long matches and overlapping copies.
        let len = testkit::usize_in(rng, 0, 8191);
        let data: Vec<u8> = (0..len).map(|_| (rng.next_u64() % 4) as u8).collect();
        let codec = FastLz::new();
        let packed = codec.compress(&data);
        assert!(data.is_empty() || packed.len() <= data.len() + 5);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    });
}

#[test]
fn expansion_is_bounded() {
    Cases::new("expansion_is_bounded", 0xC02_0005).run(128, |rng| {
        // Stored-raw fallback bounds worst-case expansion to the header.
        let data = testkit::vec_u8(rng, 0, 4096);
        for packed in [
            FastLz::new().compress(&data),
            GpuCompressor::new(GpuCompressorConfig::default()).compress_functional(&data),
        ] {
            assert!(packed.len() <= data.len() + 5);
        }
    });
}

#[test]
fn codecs_decode_each_others_frames() {
    Cases::new("codecs_decode_each_others_frames", 0xC02_0006).run(128, |rng| {
        // Both write paths share one frame format, which is what lets the
        // read path pick its decoder without knowing who wrote the chunk:
        // FastLz frames decode with the GPU codec's decoder and vice versa.
        let data = testkit::vec_u8(rng, 0, 4096);
        let gpu = GpuCompressor::new(GpuCompressorConfig::default());
        let a = FastLz::new().compress(&data);
        let b = gpu.compress_functional(&data);
        assert_eq!(gpu.decompress(&a).unwrap(), data);
        assert_eq!(FastLz::new().decompress(&b).unwrap(), data);
    });
}

#[test]
fn codecs_shrink_compressible_data() {
    Cases::new("codecs_shrink_compressible_data", 0xC02_0007).run(64, |rng| {
        // Run-heavy inputs must actually compress, not just round-trip.
        let data = testkit::vec_u8_compressible(rng, 1024, 8192);
        let packed = FastLz::new().compress(&data);
        assert!(
            packed.len() < data.len(),
            "{} !< {}",
            packed.len(),
            data.len()
        );
        assert_eq!(FastLz::new().decompress(&packed).unwrap(), data);
    });
}

/// What the token-IR path makes of one chunk: per-thread `Vec<Token>`s,
/// flattened and sealed, with the kernel cost model applied to the tokens
/// (16 cycles per region byte; region + history window read, `len + 1`
/// bytes written per literal token and 3 per match token).
fn token_ir_reference(
    config: GpuCompressorConfig,
    chunk: &[u8],
) -> (Vec<u8>, Vec<WorkItemCost>, u64) {
    let t = config.threads_per_chunk;
    let stride = chunk.len().div_ceil(t).max(1);
    let mut merged = Vec::new();
    let mut costs = Vec::new();
    let mut raw_token_bytes = 0;
    for thread in 0..t {
        let start = (thread * stride).min(chunk.len());
        let end = ((thread + 1) * stride).min(chunk.len());
        let tokens = tokenize_region(chunk, start, end, config.history);
        let out_bytes: u64 = tokens
            .iter()
            .map(|token| match token {
                Token::Literals(bytes) => bytes.len() as u64 + 1,
                Token::Match { .. } => 3,
            })
            .sum();
        raw_token_bytes += out_bytes;
        let region_bytes = (end - start) as u64;
        costs.push(WorkItemCost {
            cycles: region_bytes * 16,
            mem: MemAccess {
                coalesced_bytes: region_bytes + config.history.min(start) as u64 + out_bytes,
                uncoalesced_bytes: 0,
            },
        });
        merged.extend(tokens);
    }
    (frame::seal(chunk, &merged), costs, raw_token_bytes)
}

#[test]
fn pooled_single_pass_kernel_matches_the_token_ir_reference() {
    const LENGTHS: [usize; 8] = [0, 1, 7, 63, 4095, 4096, 4097, 65_536];
    let mut rng = dr_des::SplitMix64::new(0xC02_0008);
    let mut noise = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.next_u64() as u8).collect() };
    // Four data shapes per length. `zeros` is one match far longer than
    // MAX_MATCH per region and `bursts` alternates literal runs longer
    // than MAX_LITERAL_RUN with long matches — the inputs on which a
    // token and its wire pieces differ in count.
    let mut chunks: Vec<Vec<u8>> = Vec::new();
    let mut incompressible = Vec::new();
    for len in LENGTHS {
        chunks.push(
            b"the quick brown fox "
                .iter()
                .copied()
                .cycle()
                .take(len)
                .collect(),
        );
        incompressible.push(chunks.len());
        chunks.push(noise(len));
        chunks.push(vec![0u8; len]);
        let mut bursts = Vec::with_capacity(len);
        while bursts.len() < len {
            bursts.extend(noise(300));
            bursts.extend([7u8; 700]);
        }
        bursts.truncate(len);
        chunks.push(bursts);
    }
    let views: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();

    let pools = [WorkerPool::new(0), WorkerPool::new(1), WorkerPool::new(3)];
    for threads_per_chunk in [1usize, 8, 64] {
        let config = GpuCompressorConfig {
            threads_per_chunk,
            history: 512,
        };
        let comp = GpuCompressor::new(config);
        let mut want_frames = Vec::new();
        let mut want_costs = Vec::new();
        let mut want_raw = 0;
        for chunk in &views {
            let (frame_bytes, costs, raw) = token_ir_reference(config, chunk);
            want_frames.push(frame_bytes);
            want_costs.extend(costs);
            want_raw += raw;
        }
        // The cost tally is per token: on these inputs it must differ
        // from what the wire pieces add up to.
        let wire_bytes: u64 = views.iter().map(|c| comp.encoded_len(c) as u64).sum();
        assert_ne!(want_raw, wire_bytes, "inputs never split a token");

        for pool in &pools {
            let at = format!("threads {threads_per_chunk}, pool {}", pool.workers());
            // Dirty, recycled output buffers: the call must clear them.
            let mut frames = vec![vec![0xAAu8; 100]; views.len()];
            let mut gpu = GpuDevice::new(GpuSpec::radeon_hd_7970());
            let report = comp
                .compress_batch(SimTime::ZERO, &mut gpu, pool, &views, &mut frames)
                .unwrap();
            for (i, (got, want)) in frames.iter().zip(&want_frames).enumerate() {
                assert_eq!(got, want, "{at}: chunk {i} (len {})", views[i].len());
                assert_eq!(got, &comp.compress_functional(views[i]), "{at}: chunk {i}");
            }
            assert_eq!(report.work_items, want_costs, "{at}");
            assert_eq!(report.raw_token_bytes, want_raw, "{at}");
            assert_eq!(gpu.mem_used(), 0, "{at}");
        }

        // The stored-raw fallback keeps its strict `<` rule: noise never
        // pays, and an empty chunk's empty payload is not smaller than it.
        for &i in &incompressible {
            let (method, len) = frame::inspect(&want_frames[i]).unwrap();
            assert_eq!((method, len), (Frame::Raw, views[i].len()), "chunk {i}");
        }
        assert_eq!(frame::inspect(&want_frames[0]).unwrap().0, Frame::Raw);
        let zeros_4k = views
            .iter()
            .position(|c| c.len() == 4096 && c.iter().all(|&b| b == 0))
            .expect("a 4 KB chunk of zeros");
        assert_eq!(frame::inspect(&want_frames[zeros_4k]).unwrap().0, Frame::Lz);
    }
}

/// `len` bytes of each data class the matcher treats differently: nothing
/// to find, one unbroken offset-1 match, matches that tile at period 16,
/// many short matches, the benchmark's own block shape — a noise head and
/// a period-16 tail — from incompressible to nearly all match, and
/// periodic runs broken by noise (what one region hands the next).
fn differential_inputs(len: usize, rng: &mut dr_des::SplitMix64) -> Vec<(String, Vec<u8>)> {
    let cycled = |bytes: &[u8]| -> Vec<u8> { bytes.iter().copied().cycle().take(len).collect() };
    let mut inputs = vec![
        ("noise".to_owned(), testkit::vec_u8(rng, len, len)),
        ("offset-1 rle".to_owned(), vec![0x5A; len]),
        ("period-16".to_owned(), cycled(b"0123456789abcdef")),
        (
            "source text".to_owned(),
            cycled(include_bytes!("../src/fastlz.rs")),
        ),
    ];
    for ratio in [1.0, 1.33, 2.0, 4.0, 64.0] {
        let block = match len {
            0 => Vec::new(),
            _ => synthesize_block(rng.next_u64(), len, ratio),
        };
        inputs.push((format!("synthesize_block ratio {ratio}"), block));
    }
    // A periodic run broken mid-region by a noise burst: the region after
    // the break sees what seeding handed over from the run's end. The run
    // resumes in the phase of the break's second-last byte, whose key
    // only the positions just before the run's final period still hold.
    for period in [1usize, 16, 300] {
        let pattern = testkit::vec_u8(rng, period, period);
        let mut data = cycled(&pattern);
        let brk = len * 5 / 9;
        let resume = (brk + 286usize.next_multiple_of(period) - 2).min(len);
        rng.fill_bytes(&mut data[brk..resume]);
        inputs.push((format!("period-{period} run, noise, run"), data));
    }
    inputs
}

#[test]
fn two_phase_matcher_matches_the_token_ir_reference() {
    // Region counts that divide a chunk evenly, unevenly and into slivers;
    // histories shorter than a key, shorter and longer than a region, the
    // whole chunk, and past MAX_OFFSET; lengths around every boundary the
    // matcher has (no key, one key, a region per byte, the slot block).
    const THREADS: [usize; 6] = [1, 2, 3, 8, 16, 64];
    const HISTORIES: [usize; 6] = [1, 3, 128, 512, 4096, 70_000];
    const LENGTHS: [usize; 10] = [0, 1, 2, 3, 7, 63, 4095, 4096, 4097, 65_537];
    let mut rng = dr_des::SplitMix64::new(0xC02_000B);
    let pool = WorkerPool::new(0);
    let codec = FastLz::new();
    let mut packed = Vec::new();
    for len in LENGTHS {
        let inputs = differential_inputs(len, &mut rng);
        let views: Vec<&[u8]> = inputs.iter().map(|(_, data)| data.as_slice()).collect();
        for threads_per_chunk in THREADS {
            for history in HISTORIES {
                let config = GpuCompressorConfig {
                    threads_per_chunk,
                    history,
                };
                let mut want_frames = Vec::new();
                let mut want_costs = Vec::new();
                let mut want_raw = 0;
                for chunk in &views {
                    let (frame_bytes, costs, raw) = token_ir_reference(config, chunk);
                    want_frames.push(frame_bytes);
                    want_costs.extend(costs);
                    want_raw += raw;
                }
                let at = format!("len {len}, threads {threads_per_chunk}, history {history}");
                let mut frames = vec![Vec::new(); views.len()];
                let mut gpu = GpuDevice::new(GpuSpec::radeon_hd_7970());
                let report = GpuCompressor::new(config)
                    .compress_batch(SimTime::ZERO, &mut gpu, &pool, &views, &mut frames)
                    .unwrap();
                for ((got, want), (class, _)) in frames.iter().zip(&want_frames).zip(&inputs) {
                    assert_eq!(got, want, "{at}: {class}");
                }
                assert_eq!(report.work_items, want_costs, "{at}");
                assert_eq!(report.raw_token_bytes, want_raw, "{at}");
            }
        }
        // The CPU codec is the same core with one region and no window.
        for (class, data) in &inputs {
            codec.compress_into(data, &mut packed);
            let want = frame::seal(data, &FastLz::tokenize(data));
            assert_eq!(packed, want, "fastlz, len {len}: {class}");
        }
    }
}

/// The decoder `decode_stream` replaced, kept as its oracle: every match
/// copied one byte at a time, which is correct for any overlap by
/// construction.
fn decode_stream_bytewise(mut input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    while let Some((&control, rest)) = input.split_first() {
        input = rest;
        if control & 0x80 == 0 {
            let run = control as usize + 1;
            if input.len() < run {
                return Err(CodecError::Truncated);
            }
            out.extend_from_slice(&input[..run]);
            input = &input[run..];
        } else {
            let len = (control & 0x7F) as usize + MIN_MATCH;
            if input.len() < 2 {
                return Err(CodecError::Truncated);
            }
            let offset = u16::from_le_bytes([input[0], input[1]]) as usize;
            input = &input[2..];
            if offset == 0 || offset > out.len() {
                return Err(CodecError::BadMatchOffset {
                    position: out.len(),
                    offset,
                });
            }
            let start = out.len() - offset;
            for i in 0..len {
                let b = out[start + i];
                out.push(b);
            }
        }
    }
    Ok(())
}

/// Both decoders over `wire`, appending to the same `prefix`: the result
/// and whatever reached the output before an error must be identical.
fn assert_decoders_agree(prefix: &[u8], wire: &[u8]) {
    let mut want = prefix.to_vec();
    let want_result = decode_stream_bytewise(wire, &mut want);
    let mut got = prefix.to_vec();
    let got_result = decode_stream(wire, &mut got);
    assert_eq!(got_result, want_result, "wire {wire:?}");
    assert_eq!(got, want, "wire {wire:?}");
}

#[test]
fn span_copy_decoder_matches_the_bytewise_reference() {
    Cases::new(
        "span_copy_decoder_matches_the_bytewise_reference",
        0xC02_0009,
    )
    .run(512, |rng| {
        // Matches may reach into bytes already in the output buffer.
        let prefix = testkit::vec_u8(rng, 0, 16);
        let mut wire = Vec::new();
        let mut produced = prefix.len();
        for _ in 0..testkit::usize_in(rng, 1, 40) {
            if produced == 0 || rng.next_u64() % 3 == 0 {
                let run = testkit::usize_in(rng, 1, MAX_LITERAL_RUN);
                emit_literals(&mut wire, &testkit::vec_u8(rng, run, run));
                produced += run;
            } else {
                // RLE (1), short periods, the overlap boundary on both
                // sides, and a long reach that is out of range early on.
                let len = testkit::usize_in(rng, MIN_MATCH, MAX_MATCH);
                let offsets = [1, 2, 3, 7, 8, len - 1, len, len + 1, 4095];
                let offset = offsets[testkit::usize_in(rng, 0, offsets.len() - 1)];
                emit_match(&mut wire, offset, len);
                produced += len;
            }
        }
        assert_decoders_agree(&prefix, &wire);

        // The same stream damaged: flipped bytes turn literals into
        // matches and move offsets; truncation cuts mid-token.
        let mut damaged = wire.clone();
        for _ in 0..testkit::usize_in(rng, 1, 4) {
            let at = testkit::usize_in(rng, 0, damaged.len() - 1);
            damaged[at] ^= 1 << (rng.next_u64() % 8);
        }
        assert_decoders_agree(&prefix, &damaged);
        damaged.truncate(testkit::usize_in(rng, 0, damaged.len()));
        assert_decoders_agree(&prefix, &damaged);
        wire.truncate(testkit::usize_in(rng, 0, wire.len()));
        assert_decoders_agree(&prefix, &wire);
    });
}
