#!/usr/bin/env bash
# Non-test code lines per workspace crate, the root package and in total.
#
# Counts every `src/**/*.rs` file of each package (binaries under
# `src/bin` included): the lines `scripts/nontest_lines.awk` keeps, so
# not blank lines, comments or `#[cfg(test)]` items. Tests under
# `tests/`, `benches/` and `examples/` are outside `src/` and never
# counted.
#
# Usage: scripts/loc.sh   (from anywhere; prints a two-column table)
set -euo pipefail
shopt -s globstar nullglob

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

count() {
    awk -f "$root/scripts/nontest_lines.awk" "$@" /dev/null | wc -l
}

total=0
printf '%-16s %7s\n' package lines
for dir in "$root" "$root"/crates/*/; do
    dir="${dir%/}"
    [[ -f "$dir/Cargo.toml" ]] || continue
    name="$(awk -F'"' '/^name *=/ { print $2; exit }' "$dir/Cargo.toml")"
    files=("$dir"/src/**/*.rs)
    lines="$(count "${files[@]}")"
    total=$((total + lines))
    printf '%-16s %7d\n' "$name" "$lines"
done
printf '%-16s %7d\n' total "$total"
