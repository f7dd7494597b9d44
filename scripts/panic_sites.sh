#!/usr/bin/env bash
# Panic sites on the write and read paths, per file, against a checked-in
# ceiling.
#
# Counts the `panic!`, `.expect(`, `.unwrap()` and `unreachable!` sites in
# the non-test code (what `scripts/nontest_lines.awk` keeps) of the files
# a host write, a host read and a cluster operation run through (the
# degrade policy both paths retry under included), of the SSD model's
# request path and power-cut replay that every page read and write
# crosses, of the frame and token decoders a cold read runs on device
# bytes, and of the index snapshot decoder that recovery feeds device
# bytes, and fails when a file's count exceeds its ceiling in
# `scripts/panic_sites.ceiling` (a file missing there has a ceiling of
# 0). A change that removes sites lowers the file's ceiling, so they
# cannot come back unnoticed.
#
# Usage: scripts/panic_sites.sh   (from anywhere; prints one
# `file sites ceiling` line per file, exits 1 when a count is over)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
ceilings=scripts/panic_sites.ceiling

files=(crates/reduction/src/{ingest,journal,recovery,volume,destage,read,pipeline,degrade}.rs
    crates/cluster/src/*.rs crates/binindex/src/snapshot.rs
    crates/ssd-sim/src/{device,crash}.rs crates/compress/src/{frame,token}.rs)

sites() {
    awk -f scripts/nontest_lines.awk "$1" |
        { grep -oE 'panic!|\.expect\(|\.unwrap\(\)|unreachable!' || true; } | wc -l
}

over=0
for file in "${files[@]}"; do
    count="$(sites "$file")"
    ceiling="$(awk -v f="$file" '$1 == f { print $2 }' "$ceilings")"
    printf '%-36s %3d %3d\n' "$file" "$count" "${ceiling:=0}"
    if ((count > ceiling)); then
        echo "    ${file}: ${count} panic sites, over its ceiling of ${ceiling}" >&2
        over=1
    fi
done
exit "$over"
