#!/usr/bin/env bash
# Every identifier the docs name must exist in the code.
#
# Scans README.md, the verify skill (.claude/skills/verify/SKILL.md) and
# DESIGN.md (DESIGN.md's §17, the list of things that are not in the
# tree, excepted) for backticked tokens that look like a Rust path:
# `a::b`, `name` or `name()`. The last segment of each must occur as a
# whole word in the code: a .rs, .sh, .toml, .json or .yml file under
# crates/, src/, tests/, examples/, benchmark/src or scripts/, without its
# comment lines (`//` lines in .rs files, `#` lines in .sh, .toml and .yml
# files). A name that is not Rust but reads like one goes in SKIP below.
#
# Usage: scripts/doc_idents.sh   (from anywhere; exits 1 and lists the
# missing names when one is found)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Names the docs use in prose: instruction mnemonics, an intrinsic, a
# register, a bench binary's short name, a syscall, a trace format, a
# doctest attribute and this list.
SKIP=(_rdtsc crc32x vpconflictd vpternlogd vprold zmm e4 futex trace_event compile_fail SKIP)

# The doc lines to scan: README.md and the skill whole, DESIGN.md
# without §17.
doc_lines() {
    cat README.md .claude/skills/verify/SKILL.md
    local line in_17=0
    while IFS= read -r line; do
        if [[ $line == "## "* ]]; then
            [[ $line == "## 17."* ]] && in_17=1 || in_17=0
        fi
        ((in_17)) || printf '%s\n' "$line"
    done <DESIGN.md
}

mapfile -t tokens < <(
    doc_lines | grep -o '`[^`]*`' |
        grep -E '^`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*(\(\))?`$' |
        sort -u
)

# Every word of the code, comment lines dropped by file type.
declare -A words
while IFS= read -r word; do
    words[$word]=1
done < <(
    find crates src tests examples benchmark/src scripts -type f \
        \( -name '*.rs' -o -name '*.sh' -o -name '*.toml' -o -name '*.json' \
        -o -name '*.yml' \) ! -name doc_idents.sh -print0 |
        xargs -0 awk '
            FILENAME ~ /\.rs$/ && /^[[:space:]]*\/\// { next }
            FILENAME ~ /\.(sh|toml|yml)$/ && /^[[:space:]]*#/ { next }
            { print }' |
        grep -oE '[A-Za-z0-9_]+' | sort -u
)
for skip in "${SKIP[@]}"; do
    words[$skip]=1
done

missing=()
for token in "${tokens[@]}"; do
    name="${token//\`/}"
    name="${name%()}"
    name="${name##*::}"
    [[ -n ${words[$name]:-} ]] || missing+=("$token")
done

if ((${#missing[@]})); then
    echo "doc names with no match in the code:" >&2
    printf '  %s\n' "${missing[@]}" >&2
    exit 1
fi
echo "doc identifiers OK (${#tokens[@]} names)"
