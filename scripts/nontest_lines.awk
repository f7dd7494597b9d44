# Prints the non-test code lines of the Rust files it is given, as they
# are: every line except
#   * a blank one,
#   * a comment: one that starts with `//` after indentation (so doc
#     comments too), and
#   * the lines of a `#[cfg(test)]` item: from the attribute through the
#     end of the item it guards — the `}` that closes its first brace, or
#     a `;` or `,` outside any bracket (a `mod x;`, a `use`, a struct field
#     or a field initialiser), whichever comes first.
# Brackets inside string, raw-string and char literals and trailing `//`
# comments are ignored while matching.
#
# Usage: awk -f scripts/nontest_lines.awk FILE...   (scripts/loc.sh counts
# what it prints; scripts/panic_sites.sh searches it)
FNR == 1 { skip = 0; depth = 0; raw = 0 }
{
    line = $0
    sub(/^[ \t]+/, "", line)
    if (!skip) {
        if (line == "" || line ~ /^\/\//) next
        if (line !~ /^#\[cfg\(test\)\]/) { print; next }
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
    gsub(/'([^'\\]|\\.)'/, "''", line)
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
