#!/usr/bin/env bash
# Tier-1 gate for the ctbia workspace. Every PR must pass this script
# unchanged; it is what the repo means by "the tests are green".
#
#   scripts/ci.sh
#
# Steps, in order (fail fast):
#   1. cargo fmt --check      -- formatting is canonical
#   2. cargo clippy -D warnings, all targets (tests, examples)
#   3. cargo build --release  -- the release artifacts build
#   4. cargo test -q          -- the full unit/property/integration suite
#   5. golden-trace suite     -- regenerated JSONL traces byte-match the
#                                committed fixtures under tests/golden/
#   6. paper reproduction     -- from a fresh directory (empty memo cache)
#                                each of the nine figure bins prints
#                                exactly its committed results/<bin>.txt
#   7. perfbench smoke        -- one second of each benchmark workload
#                                (sweep, spill, serve, certify) must exit
#                                0 with `"correct": true` and
#                                `"failed": 0`
#   8. ctbia trace smoke      -- cycle attribution reconciles (the command
#                                exits non-zero if phases don't sum), for
#                                a BIA cell and for a software-CT cell,
#                                whose batched sweep emits its hits
#   9. ctbia verify --quick   -- leakage-verifier smoke run: the CT grid
#                                verifies clean, the intentionally leaky
#                                control is caught (non-zero exit), and
#                                the spectre gadget verifies clean at
#                                spec-window 0 but is caught — with a
#                                wrong-path-fill provenance report — at
#                                spec-window 32; a second run of the
#                                grid verifies 0 cells, every one from
#                                results/cache
#  10. ctbia analyze --quick  -- static-certification smoke run (hard
#                                60s timeout): the quick grid certifies
#                                0 bits for every protected cell, flags
#                                every insecure cell, and the leaky
#                                control fails `ctbia analyze` non-zero;
#                                a second run of the grid analyzes 0
#                                cells, every one from results/cache
#  11. verdict byte gate       -- from a fresh directory (empty memo
#                                cache) the verify and analyze grids,
#                                quick and full, write exactly the
#                                committed reference entries under
#                                results/verdicts/, byte for byte, with
#                                none missing on either side; a second,
#                                warm run of all four grids there
#                                executes 0 cells, so every committed
#                                entry decodes as a cache hit
#  12. serve suites + smoke    -- the e2e/protocol/stress/chaos/tenants/
#                                hits suites and the schedule determinism
#                                test for the batch-simulation
#                                daemon (chaos runs its first scenario
#                                over TCP), then a live cycle: a direct
#                                `ctbia run --metrics` whose
#                                RUN_metrics.json must be a versioned
#                                metrics document, start `ctbia serve` on
#                                a temp socket + TCP port, submit a cell
#                                that must come back from the shared
#                                memo cache with the digest the direct
#                                run reported (over UDS and again over
#                                TCP, where the memo index must answer
#                                it), query status --metrics, check
#                                that `ctbia status` prints the 23
#                                status keys in wire order, and exit
#                                cleanly on SIGTERM; every live-daemon
#                                client step runs under a hard `timeout`
#                                so a wedged daemon fails the gate
#                                instead of hanging it
#  13. chaos smoke             -- a daemon with one injected worker panic
#                                answers the poisoned submit cell-failed,
#                                respawns the worker, serves the retry,
#                                reports the restart via `ctbia health`
#                                (whose 8 keys must be in wire order),
#                                and drains cleanly on SIGTERM
#
# The script writes no tracked file: a run on a clean checkout leaves
# `git status --porcelain` empty.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# Warm-memoization gate for a verdict grid: rerunning the grid (the
# command after VERB) must execute zero cells and serve every cell from
# results/cache. N is read from the grid_summary line itself, so the
# check survives grid changes.
warm_grid_is_memoized() {
    local verb="$1"
    shift
    echo "==> $* (warm: must be fully memoized)"
    local summary n
    summary=$(timeout 60 "$@" | grep -E '^[0-9]+ cell\(s\): ')
    echo "$summary"
    n=${summary%% *}
    test -n "$n" && test "$n" -gt 0
    echo "$summary" | grep -q "^$n cell(s): 0 $verb, $n from results/cache, "
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --workspace --release
run cargo test --workspace -q

run cargo test -q --test golden_traces
echo "==> golden traces byte-match their fixtures"

# Paper reproduction byte gate. Each figure bin runs from a fresh
# directory, so its memo cache (results/cache, relative to the working
# directory) starts empty: a cell digest covers the spec but not the
# simulator code, and a warm cache would hide a simulator change.
REPRO_DIR=$(mktemp -d)
BIN_DIR="$PWD/target/release"
for EXPECTED in results/*.txt; do
    BIN=$(basename "$EXPECTED" .txt)
    echo "==> $BIN (cold) must print $EXPECTED"
    (cd "$REPRO_DIR" && "$BIN_DIR/$BIN" >"$BIN.out")
    if ! cmp -s "$REPRO_DIR/$BIN.out" "$EXPECTED"; then
        LINE=$(cmp "$REPRO_DIR/$BIN.out" "$EXPECTED" 2>&1 | sed -n 's/.* line \([0-9]*\).*/\1/p')
        LINE=${LINE:-1}
        echo "$BIN output differs from $EXPECTED at line $LINE:" >&2
        echo "  printed:   $(sed -n "${LINE}p" "$REPRO_DIR/$BIN.out")" >&2
        echo "  committed: $(sed -n "${LINE}p" "$EXPECTED")" >&2
        exit 1
    fi
done
rm -rf "$REPRO_DIR"
echo "==> all figure bins reproduce results/*.txt byte for byte"

# perfbench smoke: one second of every benchmark workload must exit 0
# with every output checked correct and no operation failed. Speed itself
# is guarded by the benchmark's parent-vs-change comparison, not here.
for WORKLOAD in sweep spill serve certify; do
    echo "==> perfbench --workload $WORKLOAD --seed 1 --seconds 1"
    PERFBENCH_RESULT=$(timeout 300 cargo run --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml -- --workload "$WORKLOAD" --seed 1 --seconds 1 \
        | tail -n 1)
    echo "$PERFBENCH_RESULT"
    echo "$PERFBENCH_RESULT" | grep -q '"correct": true'
    echo "$PERFBENCH_RESULT" | grep -q '"failed": 0[,}]'
done
echo "==> perfbench smoke: every workload correct, 0 failed"

run ./target/release/ctbia trace histogram 400 --top 5
run ./target/release/ctbia trace histogram 400 --strategy ct --top 5
echo "==> trace cycle attribution reconciles"

run ./target/release/ctbia verify --quick
warm_grid_is_memoized verified ./target/release/ctbia verify --quick
echo "==> ctbia verify leaky-bin 300 (must fail)"
if ./target/release/ctbia verify leaky-bin 300 >/dev/null 2>&1; then
    echo "leaky control verified clean — the verifier is blind" >&2
    exit 1
fi
echo "==> verifier catches the leaky control"

# Spectre negative control: the gadget's architectural trace is
# secret-independent, so it verifies clean without speculation — but
# with a wrong-path window the verifier must fail it non-zero AND the
# provenance report must name the wrong-path fill that carried the
# secret.
run ./target/release/ctbia verify spectre 192 --spec-window 0
echo "==> ctbia verify spectre 192 --spec-window 32 (must fail)"
if ./target/release/ctbia verify spectre 192 --spec-window 32 \
    >SPECTRE_verify.out 2>&1; then
    cat SPECTRE_verify.out
    rm -f SPECTRE_verify.out
    echo "spectre gadget verified clean under speculation — the verifier is blind" >&2
    exit 1
fi
grep -q "wrong-path" SPECTRE_verify.out
rm -f SPECTRE_verify.out
echo "==> verifier catches the spectre gadget's wrong-path fills"

# Static certification smoke: the quick grid must certify (protected
# cells at 0 bits, insecure cells caught) within a hard timeout, and the
# leaky control must fail `ctbia analyze` with a non-zero exit.
run timeout 60 ./target/release/ctbia analyze --quick
warm_grid_is_memoized analyzed ./target/release/ctbia analyze --quick
echo "==> ctbia analyze leaky-bin 300 --strategy insecure (must fail)"
if timeout 60 ./target/release/ctbia analyze leaky-bin 300 --strategy insecure \
    >/dev/null 2>&1; then
    echo "leaky control certified constant-time — the analyzer is blind" >&2
    exit 1
fi
echo "==> analyzer refuses to certify the leaky control"

# Verdict byte gate. The verify and analyze steps above run in the repo
# root, where results/cache may already hold every quick-grid verdict (a
# cell digest covers the spec, not the verifier), so a verifier or
# analyzer change would go unseen there. Both grids, quick and full, run
# again from a fresh directory, and every entry they write must equal the
# committed reference results/verdicts/<key>; a reference no cold run
# writes fails too.
VERDICT_DIR=$(mktemp -d)
echo "==> verify and analyze, quick and full (cold), must write results/verdicts/*"
(cd "$VERDICT_DIR" && "$BIN_DIR/ctbia" verify --quick >/dev/null &&
    timeout 60 "$BIN_DIR/ctbia" analyze --quick >/dev/null &&
    timeout 300 "$BIN_DIR/ctbia" verify >/dev/null &&
    timeout 300 "$BIN_DIR/ctbia" analyze >/dev/null)
for ENTRY in "$VERDICT_DIR"/results/cache/*; do
    KEY=$(basename "$ENTRY")
    if [ ! -f "results/verdicts/$KEY" ]; then
        echo "cold verdict $KEY has no committed reference results/verdicts/$KEY" >&2
        exit 1
    fi
    if ! cmp -s "$ENTRY" "results/verdicts/$KEY"; then
        echo "cold verdict $KEY differs from results/verdicts/$KEY:" >&2
        diff "results/verdicts/$KEY" "$ENTRY" >&2 || true
        exit 1
    fi
done
for REF in results/verdicts/*; do
    KEY=$(basename "$REF")
    if [ ! -f "$VERDICT_DIR/results/cache/$KEY" ]; then
        echo "committed verdict $KEY was not written by the cold quick grids" >&2
        exit 1
    fi
done
VERDICTS=$(find "$VERDICT_DIR/results/cache" -type f | wc -l)
echo "==> $VERDICTS cold verdicts match results/verdicts byte for byte"
# The entries just matched must also read back: rerunning every grid in
# the same directory serves each cell from its cache entry.
(
    cd "$VERDICT_DIR"
    warm_grid_is_memoized verified "$BIN_DIR/ctbia" verify --quick
    warm_grid_is_memoized analyzed "$BIN_DIR/ctbia" analyze --quick
    warm_grid_is_memoized verified "$BIN_DIR/ctbia" verify
    warm_grid_is_memoized analyzed "$BIN_DIR/ctbia" analyze
)
rm -rf "$VERDICT_DIR"
echo "==> every committed verdict decodes as a warm hit"

run cargo test -q -p ctbia-serve --test serve_e2e --test serve_protocol --test serve_stress \
    --test serve_chaos --test serve_tenants --test serve_hits --test loadgen_determinism

# Waits (bounded) for a daemon PID to exit after SIGTERM; kills and fails
# the gate if the drain wedges.
drain_or_die() {
    local pid="$1"
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "serve daemon (pid $pid) did not drain within 10s" >&2
        kill -KILL "$pid"
        exit 1
    fi
    wait "$pid"
}

# Reads a `ctbia status`/`ctbia health` listing on stdin and fails the
# gate unless its first column is exactly the given keys, in order.
first_column_is() {
    local what="$1" want="$2" got
    got=$(awk '{print $1}' | xargs)
    if [ "$got" != "$want" ]; then
        echo "$what keys: got '$got', want '$want'" >&2
        exit 1
    fi
}

# Live serve cycle. Prime the memo cache with a direct run and record the
# cell's digest; a served submit for the same cell must then come back
# from the cache with that exact digest, and SIGTERM must drain cleanly.
run ./target/release/ctbia run hist 200 --strategy bia --placement l1d --metrics
grep -q '"schema": "ctbia-metrics-v1"' RUN_metrics.json
grep -q '"phase.compute":' RUN_metrics.json
echo "==> RUN_metrics.json is versioned and round-trip verified"
RUN_DIGEST=$(sed -n 's/.*"digest": \([0-9]*\).*/\1/p' RUN_metrics.json | head -n 1)
test -n "$RUN_DIGEST"
SERVE_DIR=$(mktemp -d)
SOCK="$SERVE_DIR/ctbia.sock"
echo "==> ctbia serve --socket $SOCK --tcp 127.0.0.1:0"
./target/release/ctbia serve --socket "$SOCK" --threads 2 --tcp 127.0.0.1:0 \
    >"$SERVE_DIR/serve.out" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
test -S "$SOCK"
TCP_ADDR=""
for _ in $(seq 1 100); do
    TCP_ADDR=$(sed -n 's/^tcp listening on //p' "$SERVE_DIR/serve.out" | head -n 1)
    [ -n "$TCP_ADDR" ] && break
    sleep 0.1
done
test -n "$TCP_ADDR"
echo "==> ctbia submit --socket $SOCK hist:200:bia:l1d"
SUBMIT_OUT=$(timeout 60 ./target/release/ctbia submit --socket "$SOCK" hist:200:bia:l1d)
echo "$SUBMIT_OUT"
echo "$SUBMIT_OUT" | grep -q "digest=$RUN_DIGEST "
echo "$SUBMIT_OUT" | grep -q "cached=yes"
run timeout 60 ./target/release/ctbia status --socket "$SOCK" --metrics
grep -q '"schema": "ctbia-metrics-v1"' SERVE_metrics.json
grep -q '"serve.cache_hits": 1' SERVE_metrics.json
echo "==> ctbia status lists the 23 status keys in wire order"
timeout 60 ./target/release/ctbia status --socket "$SOCK" | first_column_is "ctbia status" \
    "jobs_submitted jobs_completed jobs_failed executed cache_hits memo_hits coalesced \
backpressure_rejections quota_rejections unauthorized_rejections protocol_errors \
inflight_jobs threads max_inflight tenants memo_shards workers_alive worker_restarts \
deadline_kills shed_submits cache_quarantined cache_store_failures chaos_injections"
# The same daemon serves the same cell over TCP with the same digest.
echo "==> ctbia submit --tcp $TCP_ADDR hist:200:bia:l1d"
timeout 60 ./target/release/ctbia submit --tcp "$TCP_ADDR" hist:200:bia:l1d \
    | grep -q "digest=$RUN_DIGEST "
# The first submit's disk hit filled the always-on memo index, so the
# re-submit was answered from memory.
run timeout 60 ./target/release/ctbia status --socket "$SOCK" --metrics
grep -q '"serve.memo_hits": 1' SERVE_metrics.json
kill -TERM "$SERVE_PID"
drain_or_die "$SERVE_PID"
test ! -e "$SOCK"
rm -rf "$SERVE_DIR"
echo "==> serve cycle: cache-backed response over UDS, memo-index hit over TCP, clean SIGTERM drain"

# Chaos smoke: one injected worker panic. The poisoned submit must fail
# with the typed cell-failed error (and a non-zero exit), the supervisor
# must respawn the worker so a retried submit succeeds, `ctbia health`
# must report the restart, and SIGTERM must still drain cleanly.
CHAOS_DIR=$(mktemp -d)
CSOCK="$CHAOS_DIR/ctbia.sock"
echo "==> ctbia serve --socket $CSOCK --chaos panic:1"
./target/release/ctbia serve --socket "$CSOCK" --threads 1 --no-cache --chaos panic:1 &
CHAOS_PID=$!
for _ in $(seq 1 100); do
    [ -S "$CSOCK" ] && break
    sleep 0.1
done
test -S "$CSOCK"
echo "==> poisoned submit fails typed"
if timeout 60 ./target/release/ctbia submit --socket "$CSOCK" hist:200:bia:l1d \
    >"$CHAOS_DIR/poisoned.out" 2>&1; then
    echo "poisoned submit unexpectedly succeeded" >&2
    exit 1
fi
grep -q "cell-failed" "$CHAOS_DIR/poisoned.out"
echo "==> retried submit succeeds on the respawned worker"
timeout 60 ./target/release/ctbia submit --socket "$CSOCK" --retries 3 --backoff-ms 20 \
    hist:200:bia:l1d | grep -q "digest="
HEALTH_OUT=$(timeout 60 ./target/release/ctbia health --socket "$CSOCK")
echo "$HEALTH_OUT"
echo "$HEALTH_OUT" | grep -Eq "worker_restarts +1"
echo "$HEALTH_OUT" | first_column_is "ctbia health" \
    "queue_depth queue_limit workers_alive worker_restarts deadline_kills shed_submits \
cache_quarantined shutting_down"
kill -TERM "$CHAOS_PID"
drain_or_die "$CHAOS_PID"
test ! -e "$CSOCK"
rm -rf "$CHAOS_DIR"
echo "==> chaos smoke: typed failure, worker respawn, clean SIGTERM drain"

echo "==> tier-1 gate passed"
