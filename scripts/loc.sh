#!/usr/bin/env bash
# Non-test code lines per workspace crate, the root package and in total.
#
# Counts every `src/**/*.rs` file of each package (binaries under
# `src/bin` included). A line is not counted when it is
#   * blank,
#   * a comment: it starts with `//` after indentation (so doc comments
#     too), or
#   * part of a `#[cfg(test)]` item: from the attribute through the end of
#     the item it guards — the `}` that closes its first brace, or a `;`
#     or `,` outside any bracket (a `mod x;`, a `use`, a struct field or a
#     field initialiser), whichever comes first.
# Brackets inside string, raw-string and char literals and trailing `//`
# comments are ignored while matching. Tests under `tests/`, `benches/`
# and `examples/` are outside `src/` and never counted.
#
# Usage: scripts/loc.sh   (from anywhere; prints a two-column table)
set -euo pipefail
shopt -s globstar nullglob

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

count() {
    awk '
    FNR == 1 { skip = 0; depth = 0; raw = 0 }
    {
        line = $0
        sub(/^[ \t]+/, "", line)
        if (!skip) {
            if (line == "" || line ~ /^\/\//) next
            if (line !~ /^#\[cfg\(test\)\]/) { n++; next }
            skip = 1; depth = 0
            sub(/^#\[cfg\(test\)\]/, "", line)
        }
        # Inside a test-only item: find where it ends. Raw strings
        # (`r#"…"#`) may span lines.
        if (raw) {
            if (!(at = index(line, "\"#"))) next
            line = substr(line, at + 2); raw = 0
        }
        while ((at = index(line, "r#\""))) {
            rest = substr(line, at + 3)
            if (!(end = index(rest, "\"#"))) { line = substr(line, 1, at - 1); raw = 1; break }
            line = substr(line, 1, at - 1) substr(rest, end + 2)
        }
        gsub(/\\\\/, "", line)
        gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
        gsub(/'\''([^'\''\\]|\\.)'\''/, "'\'''\''", line)
        sub(/\/\/.*$/, "", line)
        for (i = 1; i <= length(line); i++) {
            c = substr(line, i, 1)
            if (c == "{" || c == "(" || c == "[") depth++
            else if (c == "}" || c == ")" || c == "]") {
                depth--
                if (depth < 0 || (depth == 0 && c == "}")) { skip = 0; break }
            } else if ((c == ";" || c == ",") && depth == 0) { skip = 0; break }
        }
    }
    END { print n + 0 }
    ' "$@" /dev/null
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
