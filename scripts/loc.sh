#!/usr/bin/env bash
# Non-test line counts per crate and in total.
#
#   scripts/loc.sh
#
# Counts every `.rs` file under `crates/*/src` and the root `src/`, each
# up to (not including) its first `#[cfg(test)]` line; a file without one
# counts in full. A file whose `mod` is declared on the line after a
# `#[cfg(test)]` (a test-only module such as a shared test helper) does
# not count at all. Blank and comment lines count too. Report only:
# nothing fails on the numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

# The files of every module declared as `#[cfg(test)] mod NAME;`: NAME.rs
# or NAME/mod.rs beside a lib.rs, main.rs or mod.rs, and under a
# directory named after any other declaring file.
test_only_files() {
    find crates/*/src src -name '*.rs' | sort | xargs awk '
        FNR == 1 { armed = 0 }
        armed && /^[[:space:]]*(pub[^[:space:]]*[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/ {
            name = $0
            sub(/^.*mod[[:space:]]+/, "", name)
            sub(/[[:space:]]*;.*$/, "", name)
            dir = FILENAME
            if (dir ~ /(^|\/)(lib|main|mod)\.rs$/) sub(/\/[^\/]+$/, "", dir)
            else sub(/\.rs$/, "", dir)
            print dir "/" name ".rs"
            print dir "/" name "/mod.rs"
        }
        { armed = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) }'
}

SKIP=$(mktemp)
trap 'rm -f "$SKIP"' EXIT
test_only_files >"$SKIP"

count() {
    find "$1" -name '*.rs' | sort | { grep -vxFf "$SKIP" || true; } |
        xargs -r awk 'FNR == 1 { on = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
    n=$(count "$dir")
    total=$((total + n))
    printf '%-24s %7d\n' "${dir%/src}" "$n"
done
printf '%-24s %7d\n' total "$total"
