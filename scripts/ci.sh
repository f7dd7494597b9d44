#!/usr/bin/env bash
# Offline CI gate: formatting, lints, release build, full test suite, docs.
#
# Everything here runs without network access — the workspace has no
# third-party dependencies (see DESIGN.md §6). Run from anywhere inside
# the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

# Clippy is optional on minimal toolchains; when present, warnings fail.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy (deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings

    # Allocation audit for the ingest->hash->compress hot path, the read
    # path back through the two device models, and the cluster front-end
    # every routed write enters through: these crates must not clone or
    # re-own buffers the execution engine works hard to keep zero-copy.
    echo "==> cargo clippy (hot-path allocation audit)"
    for crate in dr-pool dr-hashes dr-compress dr-binindex dr-reduction \
        dr-ssd-sim dr-gpu-sim dr-cluster; do
        cargo clippy -p "$crate" --all-targets -- \
            -D warnings \
            -D clippy::unnecessary_to_owned \
            -D clippy::redundant_clone
    done
else
    echo "==> cargo clippy unavailable; skipping lint pass"
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

# Release-profile tests for the fingerprint path. The test profile is
# opt-level 1 with debug assertions; what ships has
# `debug_assert!(HashedChunks::verify())` compiled out — a pre-hashed
# write is stored under whatever digest it carries, nothing re-hashes it
# on entry — and the 16-lane SHA-1 arm scheduled and register-allocated
# at opt-level 3. This runs both crates' tests on that code, and
# dr-cluster's, whose nodes take those pre-hashed writes; dr-reduction's
# include the group-commit power-cut sweep (`tests/group_commit_cuts.rs`).
# dr-pool's run here too: the lifetime-erased closures of `map_batch` and
# of `WorkerPool::join` (whose pool job borrows a write's bytes while the
# submitter processes the batch before it) run as shipped, not only under
# the ASan leg's debug build. dr-compress's run here too: its kernel
# emulation fans out over the pool from four chunks, and that path is
# tested as it ships.
#
# The root corruption sweep runs as shipped too: release drops overflow
# checks, so a record reader whose offset arithmetic wraps instead of
# panicking meets every flipped, truncated and spliced record here.
echo "==> cargo test --release (dr-hashes + dr-pool + dr-compress + dr-reduction + dr-cluster, as shipped)"
cargo test -q --release --offline -p dr-hashes -p dr-pool -p dr-compress -p dr-reduction -p dr-cluster --lib --tests
cargo test -q --release --offline --test corruption

# Rustdoc gate: every intra-doc link must resolve and no public doc may
# link a private item, so deleting or renaming an item can never leave a
# dangling reference behind.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# AddressSanitizer leg: `unsafe` is confined to two crates (every other
# library crate is `#![forbid(unsafe_code)]`). dr-pool holds the
# thread-facing part (the lifetime-erased batch closure, the
# disjoint-slot pointer of `for_each_mut`) beside a hand-rolled
# spin-then-park wake-up protocol; its tests run every one of those paths
# on real threads. dr-hashes holds the rest: the `std::arch` arms of
# SHA-1 (one message and sixteen at once), CRC-32C and LZ slot hashing,
# whose tests call every arm the CPU has, at every tail length and load
# offset (the multi-buffer arm: sixteen lanes at sixteen alignments, the
# last message ending where its heap block ends), so an out-of-bounds
# pointer load or store there is ASan's to find. `-Zsanitizer` needs a
# nightly toolchain (an explicit --target keeps the flag off build
# scripts; doctests do not link under it, hence --lib --tests); without
# one the leg is skipped, like clippy.
if cargo +nightly --version >/dev/null 2>&1; then
    echo "==> ASan leg (nightly, dr-hashes + dr-pool unit and integration tests)"
    RUSTFLAGS=-Zsanitizer=address cargo +nightly test --offline \
        -p dr-hashes -p dr-pool --lib --tests --target x86_64-unknown-linux-gnu
else
    echo "==> cargo +nightly unavailable; skipping the dr-hashes and dr-pool ASan leg"
fi

# Benchmark self-tests: the repo benchmark is a package of its own
# (benchmark/, outside the workspace), so the steps above never compile
# it. Its tests drive `--smoke` on all four workloads through
# benchmark/src/sut.rs: a public-API break or a simulated digest that
# differs between repetitions fails here in seconds instead of at the
# perf gate.
echo "==> benchmark self-tests (public API + sim_digest, --smoke on 4 workloads)"
cargo test --manifest-path benchmark/Cargo.toml --offline -q

# Degradation gate: seeded fault schedules must not change the logical
# volume contents in any integration mode (DESIGN.md §10). The bin exits
# non-zero on a digest mismatch, and its table — faults injected, retries
# and latch transitions per mode x scenario, on the simulated clock, so
# deterministic — must equal the committed golden. A PR that changes the
# fault accounting on purpose updates the golden and says why.
echo "==> fault matrix (faulted vs fault-free digest diff, table vs golden)"
cargo run --release -q -p dr-bench --bin fault_matrix | diff crates/bench/fault_matrix.golden -

# Simulated-table gate: every E-table and the ablation report is
# simulated, so deterministic. E8 moves when reads are fetched, decoded
# or charged differently; E9 (table, read-back digest, 1-node parity)
# when routing, rebalancing or cluster dedup accounting change; the rest
# when the write path's stages or cost models do. Like the fault matrix,
# a PR that moves one on purpose re-records its golden and says why. Run
# at the default scale, with the metrics path the goldens name.
for bin in e1_indexing_cpu_vs_gpu e2_dedup_throughput e3_compress_throughput \
    e4_fig2_integration e5_calibration e6_endurance e7_chunk_size_sweep \
    e8_read_path e9_cluster ablation_report; do
    echo "==> ${bin} (table vs golden)"
    env -u DR_SCALE -u DR_METRICS_OUT "target/release/${bin}" \
        | diff "crates/bench/${bin}.golden" -
done

# Differential-checker smoke: seeded op sequences against the in-memory
# oracle across all 4 integration modes, fault-free and faulted
# (DESIGN.md §11). DR_CHECK_SEEDS widens the sweep (the scheduled deep
# job uses 500); the default 25 stays well under two minutes.
echo "==> dr-check smoke (${DR_CHECK_SEEDS:-25} seeds x 4 modes x 2 scenarios)"
cargo run --release -q -p dr-check -- run --mode all --scenario both

# Crash-consistency smoke: seeded sequences with power-cut ops, run with
# the metadata journal enabled. After every cut the checker recovers from
# the journal and verifies the durable prefix: acknowledged ops survive,
# unacknowledged ones are atomically absent (DESIGN.md §15).
echo "==> dr-check crash smoke (${DR_CHECK_SEEDS:-25} seeds x 4 modes)"
cargo run --release -q -p dr-check -- run --mode all --scenario crash

# Cluster smoke: the same seeded-sequence machinery against the sharded
# multi-node cluster, with membership churn (node join/leave) and
# per-node power cuts in the op alphabet. The cluster oracle checks byte
# identity across any routing history, rebalance custody, crash
# envelopes, and cluster-wide conservation (DESIGN.md §16). The default
# seed range provably exercises join, leave, and node-crash (pinned by a
# dr-check unit test).
echo "==> dr-check cluster smoke (${DR_CHECK_SEEDS:-25} seeds x 4 modes)"
cargo run --release -q -p dr-check -- run --mode all --scenario cluster

# Trace smoke: a traced bench run must exit cleanly, leave stdout
# bit-identical to an untraced run (DESIGN.md §12), and write a
# non-empty Chrome trace_event document.
echo "==> trace smoke (e2 scaled down, traced vs untraced stdout diff)"
TRACE_JSON="target/ci-trace.json"
DR_SCALE=0.125 target/release/e2_dedup_throughput > target/ci-e2-plain.out
DR_SCALE=0.125 target/release/e2_dedup_throughput --trace "${TRACE_JSON}" \
    > target/ci-e2-traced.out 2> target/ci-e2-traced.err
diff target/ci-e2-plain.out target/ci-e2-traced.out
if command -v python3 >/dev/null 2>&1; then
    python3 - "${TRACE_JSON}" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "trace has no events"
assert any(e.get("ph") == "X" for e in events), "trace has no spans"
print(f"    trace OK: {len(events)} events")
EOF
else
    # No JSON parser available: at least require a non-empty document.
    [ -s "${TRACE_JSON}" ] && grep -q '"traceEvents"' "${TRACE_JSON}"
    echo "    trace OK (python3 unavailable; checked non-empty only)"
fi

# Read-path parity smoke: batched reads must return bit-identical bytes
# to a serial read loop at pool widths 1/2/4, in cpu-only and
# gpu-compression mode (different frames, one read path: cold frames
# decode on the CPU in every mode), with a pool-width-independent read
# clock (DESIGN.md §14). The bin exits non-zero on any divergence.
echo "==> read-path parity smoke (batched vs serial, pool widths, both modes)"
target/release/e8_read_path --parity-check

# Scalar-fallback leg: DR_SIMD=scalar forces every SWAR/SIMD dispatch in
# dr-hashes and dr-compress onto its portable fallback (DESIGN.md §13).
# The differential tests must still pass, and a forced-scalar bench run
# must leave simulated stdout bit-identical to the hardware-path run
# above — the accelerated paths are pure speedups, never behaviour. (e2
# fingerprints 128-chunk batches, so on an AVX-512 host the run above
# took the multi-buffer SHA-1 arm for every chunk and this one for none.)
echo "==> scalar-fallback leg (DR_SIMD=scalar)"
DR_SIMD=scalar cargo test -q -p dr-hashes -p dr-compress
DR_SCALE=0.125 DR_SIMD=scalar target/release/e2_dedup_throughput \
    > target/ci-e2-scalar.out
diff target/ci-e2-plain.out target/ci-e2-scalar.out
# e2 never compresses; e3 runs both codecs — the CPU one and the GPU
# kernel emulation — and e4 runs the kernel emulation inside the write
# path, both through the matcher whose slot pass is vectorised. At full
# scale they must match the goldens the plain runs above were held to.
for bin in e3_compress_throughput e4_fig2_integration; do
    env -u DR_SCALE -u DR_METRICS_OUT DR_SIMD=scalar "target/release/${bin}" \
        | diff "crates/bench/${bin}.golden" -
done
echo "    scalar arm OK (stdout bit-identical)"

echo "CI gate passed."
