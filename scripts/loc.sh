#!/bin/sh
# Non-test source lines of the workspace crates.
#
# Prints, for every `crates/*/src/**/*.rs` file, the lines that are not
# blank and do not start with `//` (doc comments included), then the
# total. Test code is skipped: every `tests.rs` file, and every item
# under a `#[cfg(test)]` attribute, up to its matching closing brace or
# to the `;` that ends it. String and char literals are blanked before
# braces are counted, so a `"{"` does not unbalance an item.
#
# Usage: scripts/loc.sh [crate-dir...]   (default: crates/*)
# Run from the repository root. POSIX sh and awk only.

set -eu

if [ "$#" -eq 0 ]; then
    set -- crates/*
fi

for dir in "$@"; do
    [ -d "$dir/src" ] && find "$dir/src" -name '*.rs' ! -name tests.rs
done | LC_ALL=C sort | while IFS= read -r file; do
    awk -v file="$file" '
        function braces(s,    opened, closed) {
            gsub(/\\\\/, "", s)
            gsub(/\\"/, "", s)
            gsub(/"[^"]*"/, "\"\"", s)
            gsub(/'\''\\?.'\''/, "", s)
            opened = gsub(/\{/, "{", s)
            closed = gsub(/\}/, "}", s)
            return opened - closed
        }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (!skipping && line ~ /^#\[cfg\(test\)\]/) {
                skipping = 1
                depth = 0
                opened = 0
                sub(/^#\[cfg\(test\)\][ \t]*/, "", line)
            }
            if (skipping) {
                code = line
                sub(/\/\/.*/, "", code)
                depth += braces(code)
                if (code ~ /\{/) opened = 1
                if ((opened && depth <= 0) || (!opened && code ~ /;[ \t]*$/)) skipping = 0
                next
            }
            if (line != "" && line !~ /^\/\//) n++
        }
        END { printf "%6d %s\n", n, file }
    ' "$file"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
