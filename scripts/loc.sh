#!/usr/bin/env bash
# Non-test line counts per crate and in total.
#
#   scripts/loc.sh
#
# Counts every `.rs` file under `crates/*/src` and the root `src/`, each
# up to (not including) its first `#[cfg(test)]` line; a file without one
# counts in full. Blank and comment lines count too. Report only: nothing
# fails on the numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { on = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
    n=$(count "$dir")
    total=$((total + n))
    printf '%-24s %7d\n' "${dir%/src}" "$n"
done
printf '%-24s %7d\n' total "$total"
