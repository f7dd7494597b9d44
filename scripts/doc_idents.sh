#!/usr/bin/env bash
# Every identifier the docs name must exist in the code.
#
# Scans README.md, the verify skill (.claude/skills/verify/SKILL.md) and
# DESIGN.md (DESIGN.md's §17, the list of things that are not in the
# tree, excepted) for backticked tokens that look like a Rust path:
# `a::b`, `name` or `name()`. The last segment of each must occur, as a
# substring, in a .rs, .sh, .toml, .json or .yml file under
# crates/, src/, tests/, examples/, benchmark/src or scripts/. A name that
# is not Rust but reads like one goes in SKIP below.
#
# Usage: scripts/doc_idents.sh   (from anywhere; exits 1 and lists the
# missing names when one is found)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# An instruction mnemonic and an intrinsic the docs mention in prose.
SKIP=(_rdtsc crc32x)

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

missing=()
for token in "${tokens[@]}"; do
    name="${token//\`/}"
    name="${name%()}"
    name="${name##*::}"
    for skip in "${SKIP[@]}"; do
        [[ $name == "$skip" ]] && continue 2
    done
    if ! grep -rqF --include='*.rs' --include='*.sh' --include='*.toml' \
        --include='*.json' --include='*.yml' --exclude=doc_idents.sh -e "$name" \
        crates src tests examples benchmark/src scripts; then
        missing+=("$token")
    fi
done

if ((${#missing[@]})); then
    echo "doc names with no match in the code:" >&2
    printf '  %s\n' "${missing[@]}" >&2
    exit 1
fi
echo "doc identifiers OK (${#tokens[@]} names)"
