#!/usr/bin/env sh
# Ingest hot-path benchmark tracker: runs the table, ingest-handler, codec
# and workload micro-benchmarks and records (name, ns/op, allocs/op,
# events/sec) in BENCH_ingest.json at the repository root, so hot-path
# regressions show up as a diff; end-to-end daemon sections add
# BENCH_stream.json (POST vs streaming transports), BENCH_wal.json (WAL
# fsync policies), BENCH_replication.json (ingest with one live follower
# replica attached), and BENCH_trace.json (span-tracing sampling overhead).
# Run from anywhere inside the repository.
#
#   scripts/bench.sh [benchtime]
#
# benchtime defaults to 2s; pass e.g. 5s for lower-variance numbers.
#
# After regenerating the tracked result files, fresh numbers are compared
# against the previously committed ones: a throughput drop beyond
# BENCH_GATE_PCT percent (default 20) on any shared benchmark fails the
# script. Set BENCH_GATE_SKIP=1 to record new numbers without gating (e.g.
# when moving to different hardware). The default leaves room for the
# benchmarking host itself: identical binaries re-measured across sessions
# drift up to ~15% with VM conditions (untouched benchmarks have tripped a
# 15% gate on a slow day), so the budget sits just above that drift while
# still catching the step-function regressions the gate exists for.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-2s}"
PATTERN='^(BenchmarkTableApply|BenchmarkTableApplyBatch|BenchmarkTableApplyBatchKind|BenchmarkIngestHandler|BenchmarkTraceCodec|BenchmarkWorkloadGenerator)$'
OUT=BENCH_ingest.json
GATE_PCT="${BENCH_GATE_PCT:-20}"

BENCH_DIR=$(mktemp -d)
DAEMON_PID=""
REPLICA_PID=""
cleanup() {
    for pid in "$DAEMON_PID" "$REPLICA_PID"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$BENCH_DIR"
}
trap cleanup EXIT INT TERM

# The files in the worktree are the committed baseline; stash them before
# they are regenerated so the gate at the end can diff against them.
cp BENCH_ingest.json "$BENCH_DIR/base_ingest.json" 2>/dev/null || true
cp BENCH_stream.json "$BENCH_DIR/base_stream.json" 2>/dev/null || true
cp BENCH_replication.json "$BENCH_DIR/base_replication.json" 2>/dev/null || true
cp BENCH_trace.json "$BENCH_DIR/base_trace.json" 2>/dev/null || true

# go's framework already averages within a run, but whole runs drift with
# host load — identical configs minutes apart spread by ±10% — so take each
# benchmark's best (lowest ns/op) across -count=3 statistically independent
# runs; the regression gate then compares least-interfered against
# least-interfered.
echo "==> go test -bench (benchtime=$BENCHTIME, count=3, keeping per-bench best)" >&2
RAW=$(go test -run='^$' -bench="$PATTERN" -benchmem -benchtime="$BENCHTIME" -count=3 .)
printf '%s\n' "$RAW" >&2

# Benchmark lines look like:
#   BenchmarkTableApplyBatch  3626  642466 ns/op  32768 events/op  8 B/op  0 allocs/op
# events/op is the per-iteration event count reported by the benchmark; for
# per-event benchmarks (no events/op metric) it is 1, so events/sec is
# simply 1e9/ns_op. With -count=3 each name repeats; the first-seen order
# is kept and the lowest ns/op per name wins.
printf '%s\n' "$RAW" | awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = 0; ev = 1; allocs = 0
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "events/op") ev = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (ns == 0) next
    if (!(name in best_ns)) order[n++] = name
    if (!(name in best_ns) || ns + 0 < best_ns[name] + 0) {
        best_ns[name] = ns
        best_ev[name] = ev
        best_allocs[name] = allocs
    }
}
END {
    printf "[\n"
    for (i = 0; i < n; i++) {
        name = order[i]
        if (i) printf ",\n"
        printf "  {\"name\": \"%s\", \"ns_per_op\": %.0f, \"allocs_per_op\": %d, \"events_per_sec\": %.0f}", \
            name, best_ns[name], best_allocs[name], best_ev[name] / best_ns[name] * 1e9
    }
    printf "\n]\n"
}
' >"$OUT"

echo "==> wrote $OUT" >&2
cat "$OUT"

# The kind-generic apply path (ApplyBatchKind on a non-branch kind, paying
# the kind-program key encoding) must stay within BENCH_KIND_GATE_PCT
# percent (default 5) of the branch-only ApplyBatch on the same stream.
# Unlike the cross-session gates above, both rows come from the same run on
# the same host, so the tight budget is safe from baseline drift.
KIND_GATE_PCT="${BENCH_KIND_GATE_PCT:-5}"
bench_eps() { # $1 = benchmark name
    sed -n 's/.*"name": *"'"$1"'".*"events_per_sec": *\([0-9][0-9]*\).*/\1/p' "$OUT"
}
awk -v branch="$(bench_eps BenchmarkTableApplyBatch)" \
    -v kind="$(bench_eps BenchmarkTableApplyBatchKind)" \
    -v limit="$KIND_GATE_PCT" 'BEGIN {
    drop = (branch - kind) / branch * 100
    printf "==> kind-generic apply overhead: %.1f%% (limit %.0f%%)\n", drop, limit
    if (drop > limit) { print "KIND REGRESSION: the kind-generic hot path lost more than the budget to branch-only"; exit 1 }
}' >&2

# --- POST vs streaming transport comparison --------------------------------
# Drives the identical seeded workload through POST /v1/ingest and through a
# streaming session at several credit windows against an ephemeral reactived,
# and records throughput and p99 batch latency per transport in
# BENCH_stream.json. The windows bracket the backpressure regimes: window 1
# is fully serialized (one frame in flight), larger windows pipeline. Every
# stream row runs a session on the raw -stream-addr TCP listener, with the
# one decision wire (run-length frames, plain fallback per frame).
STREAM_OUT=BENCH_stream.json

echo "==> building reactived + reactiveload for the transport comparison" >&2
go build -o "$BENCH_DIR/reactived" ./cmd/reactived
go build -o "$BENCH_DIR/reactiveload" ./cmd/reactiveload

# start_daemon <label> [extra reactived flags...]: boots an ephemeral daemon
# on a random port, waits for the address file, and leaves ADDR/DAEMON_PID
# set. stop_daemon shuts it down.
start_daemon() {
    sd_label=$1
    shift
    rm -f "$BENCH_DIR/addr"
    "$BENCH_DIR/reactived" \
        -addr 127.0.0.1:0 \
        -addr-file "$BENCH_DIR/addr" \
        "$@" >"$BENCH_DIR/reactived-$sd_label.log" 2>&1 &
    DAEMON_PID=$!
    i=0
    while [ ! -s "$BENCH_DIR/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "reactived ($sd_label) never published its address" >&2
            cat "$BENCH_DIR/reactived-$sd_label.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR=$(cat "$BENCH_DIR/addr")
}

stop_daemon() {
    kill "$DAEMON_PID"
    wait "$DAEMON_PID" 2>/dev/null || true
    DAEMON_PID=""
}

start_daemon transport \
    -stream-addr 127.0.0.1:0 \
    -stream-addr-file "$BENCH_DIR/stream-addr"
i=0
while [ ! -s "$BENCH_DIR/stream-addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "reactived (transport) never published its stream address" >&2
        cat "$BENCH_DIR/reactived-transport.log" >&2
        exit 1
    fi
    sleep 0.1
done
TCP_STREAM_ADDR=$(cat "$BENCH_DIR/stream-addr")

# Every run replays the same seeded gzip workload at batch 1024, so the
# transports are compared on identical event sequences.
run_load() { # $1 = report label; rest = transport-selecting flags
    label=$1
    shift
    echo "==> reactiveload $label" >&2
    "$BENCH_DIR/reactiveload" \
        -addr "http://$ADDR" \
        -bench gzip \
        -scale 0.5 \
        -events 50000 \
        -seed 7 \
        -concurrency 4 \
        -batch 1024 \
        "$@" >"$BENCH_DIR/$label.json"
}

# Pull one numeric field out of an indented JSON report.
field() { # $1 = report label, $2 = field name
    sed -n 's/.*"'"$2"'": *\([0-9.eE+-][0-9.eE+-]*\).*/\1/p' "$BENCH_DIR/$1.json"
}

# run_load twice and keep the report with the higher events/sec. Whole runs
# drift ±10% with host load; rows that feed a regression gate record their
# less-interfered repetition so gated comparisons aren't coin flips.
run_load_best() { # $1 = report label; rest = transport-selecting flags
    rlb_label=$1
    shift
    run_load "$rlb_label-r1" "$@"
    run_load "$rlb_label-r2" "$@"
    if awk -v a="$(field "$rlb_label-r1" events_per_sec)" \
           -v b="$(field "$rlb_label-r2" events_per_sec)" 'BEGIN{exit !(a+0>=b+0)}'; then
        cp "$BENCH_DIR/$rlb_label-r1.json" "$BENCH_DIR/$rlb_label.json"
    else
        cp "$BENCH_DIR/$rlb_label-r2.json" "$BENCH_DIR/$rlb_label.json"
    fi
}

# All runs replay the same programs, so the first one also pays the cold
# cost of populating the controller table; burn that on an unrecorded
# warmup so every measured run sees the same converged table state.
run_load warmup
run_load post
run_load stream-w1 -stream-addr "$TCP_STREAM_ADDR" -window 1
run_load stream-w4 -stream-addr "$TCP_STREAM_ADDR" -window 4
run_load stream-w16 -stream-addr "$TCP_STREAM_ADDR" -window 16
run_load stream-w32 -stream-addr "$TCP_STREAM_ADDR" -window 32

# The preencoded stream rows at two credit windows. Row names are stable
# (tcp-rle-w<N>) so the regression gate below tracks each row individually.
#
# These rows run with -preencode (every batch generated and encoded before
# the clock starts) and 10x the events of the rows above. Those measure the
# whole pipeline including client-side workload generation, which on a
# small host shares the CPU with the daemon and caps every transport at the
# same generator-bound ceiling; preencoding isolates transport + daemon
# serving capacity, and the longer run drops per-row noise to a few
# percent. Flags given after run_load's fixed ones win (Go's flag package
# keeps the last value), so -events here overrides the default.
MATRIX_WINDOWS="16 64"
for w in $MATRIX_WINDOWS; do
    run_load_best "tcp-rle-w$w" -stream-addr "$TCP_STREAM_ADDR" -window "$w" -events 500000 -preencode
done

{
    printf '[\n'
    first=1
    for label in post stream-w1 stream-w4 stream-w16 stream-w32; do
        if [ "$first" -eq 1 ]; then first=0; else printf ',\n'; fi
        window=$(field "$label" window)
        printf '  {"name": "%s", "mode": "%s", "window": %s, "batch": 1024, "events_per_sec": %s, "batch_latency_p99_ms": %s}' \
            "$label" \
            "${label%%-*}" \
            "${window:-0}" \
            "$(field "$label" events_per_sec)" \
            "$(field "$label" batch_latency_p99_ms)"
    done
    for w in $MATRIX_WINDOWS; do
        label="tcp-rle-w$w"
        printf ',\n  {"name": "%s", "transport": "tcp", "decisions": "rle", "window": %s, "batch": 1024, "events_per_sec": %s, "batch_latency_p99_ms": %s}' \
            "$label" "$w" \
            "$(field "$label" events_per_sec)" \
            "$(field "$label" batch_latency_p99_ms)"
    done
    printf '\n]\n'
} >"$STREAM_OUT"

echo "==> wrote $STREAM_OUT" >&2
cat "$STREAM_OUT"
stop_daemon

# --- WAL ingest cost ------------------------------------------------------
# Replays the identical seeded POST workload against a daemon without a WAL,
# with the WAL at the default interval fsync policy, and with fsync=always,
# and records the three in BENCH_wal.json. Each mode gets a fresh daemon
# (the log cannot be toggled at runtime), with an unrecorded warmup so every
# measured run sees a converged controller table. The interval policy — the
# recommended production setting — must stay within BENCH_WAL_GATE_PCT
# percent (default 25) of the WAL-off throughput measured in the same run.
#
# Like the trace rows below, the measured rows run 5x the default events:
# the gate is a ratio of two separate runs, and at the default length a
# single slow fsync (a 50ms stall against a ~25ms run) can more than double
# the apparent overhead.
WAL_OUT=BENCH_wal.json
WAL_GATE_PCT="${BENCH_WAL_GATE_PCT:-25}"

run_wal_mode() { # $1 = report label; rest = extra reactived flags
    mode=$1
    shift
    rm -rf "$BENCH_DIR/wal"
    start_daemon "$mode" "$@"
    run_load "warmup-$mode"
    run_load "$mode" -events 250000
    stop_daemon
}

run_wal_mode wal-off
run_wal_mode wal-interval -wal-dir "$BENCH_DIR/wal" -wal-fsync interval
run_wal_mode wal-always -wal-dir "$BENCH_DIR/wal" -wal-fsync always

{
    printf '[\n'
    first=1
    for label in wal-off wal-interval wal-always; do
        if [ "$first" -eq 1 ]; then first=0; else printf ',\n'; fi
        printf '  {"name": "%s", "fsync": "%s", "batch": 1024, "events_per_sec": %s, "batch_latency_p99_ms": %s}' \
            "$label" \
            "${label#wal-}" \
            "$(field "$label" events_per_sec)" \
            "$(field "$label" batch_latency_p99_ms)"
    done
    printf '\n]\n'
} >"$WAL_OUT"

echo "==> wrote $WAL_OUT" >&2
cat "$WAL_OUT"

WAL_OFF_EPS=$(field wal-off events_per_sec)
WAL_INT_EPS=$(field wal-interval events_per_sec)
awk -v off="$WAL_OFF_EPS" -v on="$WAL_INT_EPS" -v limit="$WAL_GATE_PCT" 'BEGIN {
    drop = (off - on) / off * 100
    printf "==> wal overhead (fsync=interval): %.1f%% (limit %.0f%%)\n", drop, limit
    if (drop > limit) { print "WAL REGRESSION: interval-fsync ingest exceeds the overhead budget"; exit 1 }
}' >&2

# --- Replication ingest overhead ------------------------------------------
# Replays the identical seeded POST workload against a WAL'd primary
# (fsync=interval, the recommended production policy) with one live follower
# replica attached and applying every shipped record, and records it next to
# the follower-free wal-interval run from the section above in
# BENCH_replication.json. Shipping rides the durability notifications off the
# ingest path, so the overhead of one follower must stay within
# BENCH_REPL_GATE_PCT percent (default 10) of the WAL-only throughput
# measured in the same run. The follower is a second full daemon that
# re-logs and re-applies every shipped record, so on a single-CPU host the
# two processes split the only core and the measured drop is dominated by
# CPU contention rather than shipping cost; such hosts get a contention
# allowance (default 60) instead, and the row records the CPU count so the
# committed number is interpretable.
REPL_OUT=BENCH_replication.json
NCPU=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$NCPU" -gt 1 ]; then
    REPL_GATE_PCT="${BENCH_REPL_GATE_PCT:-10}"
else
    echo "==> single-CPU host: follower shares the primary's core; replication gate relaxed to 75%" >&2
    REPL_GATE_PCT="${BENCH_REPL_GATE_PCT:-75}"
fi

rm -rf "$BENCH_DIR/wal" "$BENCH_DIR/wal-replica"
rm -f "$BENCH_DIR/repl-addr" "$BENCH_DIR/addr-replica"
start_daemon repl-primary \
    -wal-dir "$BENCH_DIR/wal" \
    -wal-fsync interval \
    -replication-addr 127.0.0.1:0 \
    -replication-addr-file "$BENCH_DIR/repl-addr"
i=0
while [ ! -s "$BENCH_DIR/repl-addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "reactived (repl-primary) never published its replication address" >&2
        cat "$BENCH_DIR/reactived-repl-primary.log" >&2
        exit 1
    fi
    sleep 0.1
done

"$BENCH_DIR/reactived" \
    -addr 127.0.0.1:0 \
    -addr-file "$BENCH_DIR/addr-replica" \
    -wal-dir "$BENCH_DIR/wal-replica" \
    -wal-fsync interval \
    -replica-of "$(cat "$BENCH_DIR/repl-addr")" >"$BENCH_DIR/reactived-repl-replica.log" 2>&1 &
REPLICA_PID=$!
i=0
while [ ! -s "$BENCH_DIR/addr-replica" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "replica reactived never published its address" >&2
        cat "$BENCH_DIR/reactived-repl-replica.log" >&2
        exit 1
    fi
    kill -0 "$REPLICA_PID" 2>/dev/null || {
        echo "replica reactived exited early" >&2
        cat "$BENCH_DIR/reactived-repl-replica.log" >&2
        exit 1
    }
    sleep 0.1
done

# Same 5x run length as the wal-interval row this is compared against.
run_load warmup-repl
run_load repl-follower -events 250000
kill "$REPLICA_PID"
wait "$REPLICA_PID" 2>/dev/null || true
REPLICA_PID=""
stop_daemon

{
    printf '[\n'
    printf '  {"name": "wal-interval-alone", "followers": 0, "cpus": %s, "batch": 1024, "events_per_sec": %s, "batch_latency_p99_ms": %s},\n' \
        "$NCPU" \
        "$(field wal-interval events_per_sec)" \
        "$(field wal-interval batch_latency_p99_ms)"
    printf '  {"name": "repl-follower", "followers": 1, "cpus": %s, "batch": 1024, "events_per_sec": %s, "batch_latency_p99_ms": %s}\n' \
        "$NCPU" \
        "$(field repl-follower events_per_sec)" \
        "$(field repl-follower batch_latency_p99_ms)"
    printf ']\n'
} >"$REPL_OUT"

echo "==> wrote $REPL_OUT" >&2
cat "$REPL_OUT"

REPL_BASE_EPS=$(field wal-interval events_per_sec)
REPL_EPS=$(field repl-follower events_per_sec)
awk -v off="$REPL_BASE_EPS" -v on="$REPL_EPS" -v limit="$REPL_GATE_PCT" 'BEGIN {
    drop = (off - on) / off * 100
    printf "==> replication overhead (one follower): %.1f%% (limit %.0f%%)\n", drop, limit
    if (drop > limit) { print "REPLICATION REGRESSION: one attached follower exceeds the ingest overhead budget"; exit 1 }
}' >&2

# --- Span-tracing overhead -------------------------------------------------
# Replays the identical seeded POST workload against a fresh daemon with
# span tracing off, sampling 1 in 128 batches, and sampling every batch, and
# records the three in BENCH_trace.json. Each mode gets its own daemon (the
# sample rate is fixed at startup) and an unrecorded warmup. The production
# recommendation — 1 in 128 — must stay within BENCH_TRACE_GATE_PCT percent
# (default 10) of the tracing-off throughput measured in the same run; the
# sample-every-batch row is recorded for context, not gated.
#
# The rows run 5x the default events: the compared quantity is a ratio of
# two separate runs, so it needs per-run noise well below the budget. The
# budget itself is calibrated against measured cost, which is dominated by
# the fixed tracing-enabled bookkeeping (~3-4% of a POST batch at current
# apply speeds), not per-span work — sampling every batch instead of 1 in
# 128 adds only another ~1-2 points. When the untraced baseline gets
# faster, the same absolute bookkeeping cost is a larger fraction, so this
# budget must be revisited whenever the apply path speeds up materially.
TRACE_OUT=BENCH_trace.json
TRACE_GATE_PCT="${BENCH_TRACE_GATE_PCT:-10}"

run_trace_mode() { # $1 = report label; rest = extra reactived flags
    mode=$1
    shift
    start_daemon "$mode" "$@"
    run_load "warmup-$mode"
    # Best of three measured runs. The gate below takes a ratio of two
    # separate runs, and single runs of identical configs spread by ±10%
    # on a busy host; each mode's maximum is its least-interfered run, so
    # the ratio compares like against like.
    best=0
    for rep in 1 2 3; do
        run_load "$mode-r$rep" -events 250000
        rep_eps=$(field "$mode-r$rep" events_per_sec)
        if awk -v a="$rep_eps" -v b="$best" 'BEGIN{exit !(a+0>b+0)}'; then
            best=$rep_eps
            cp "$BENCH_DIR/$mode-r$rep.json" "$BENCH_DIR/$mode.json"
        fi
    done
    stop_daemon
}

run_trace_mode trace-off
run_trace_mode trace-1in128 -trace-spans "$BENCH_DIR/spans-128.jsonl" -trace-sample 128
run_trace_mode trace-1in1 -trace-spans "$BENCH_DIR/spans-1.jsonl" -trace-sample 1

{
    printf '[\n'
    printf '  {"name": "trace-off", "sample": 0, "batch": 1024, "events_per_sec": %s, "batch_latency_p99_ms": %s},\n' \
        "$(field trace-off events_per_sec)" \
        "$(field trace-off batch_latency_p99_ms)"
    printf '  {"name": "trace-1in128", "sample": 128, "batch": 1024, "events_per_sec": %s, "batch_latency_p99_ms": %s},\n' \
        "$(field trace-1in128 events_per_sec)" \
        "$(field trace-1in128 batch_latency_p99_ms)"
    printf '  {"name": "trace-1in1", "sample": 1, "batch": 1024, "events_per_sec": %s, "batch_latency_p99_ms": %s}\n' \
        "$(field trace-1in1 events_per_sec)" \
        "$(field trace-1in1 batch_latency_p99_ms)"
    printf ']\n'
} >"$TRACE_OUT"

echo "==> wrote $TRACE_OUT" >&2
cat "$TRACE_OUT"

TRACE_OFF_EPS=$(field trace-off events_per_sec)
TRACE_128_EPS=$(field trace-1in128 events_per_sec)
awk -v off="$TRACE_OFF_EPS" -v on="$TRACE_128_EPS" -v limit="$TRACE_GATE_PCT" 'BEGIN {
    drop = (off - on) / off * 100
    printf "==> span-tracing overhead (1 in 128): %.1f%% (limit %.0f%%)\n", drop, limit
    if (drop > limit) { print "TRACING REGRESSION: 1-in-128 sampling exceeds the overhead budget"; exit 1 }
}' >&2

# --- Regression gate vs the committed baselines ---------------------------
# Any benchmark shared by a stashed baseline file and its fresh counterpart
# must not have lost more than GATE_PCT percent throughput.
if [ "${BENCH_GATE_SKIP:-0}" = "1" ]; then
    echo "==> BENCH_GATE_SKIP=1: skipping the regression gate" >&2
else
    pairs() { # extract "name events_per_sec" rows from a result file
        sed -n 's/.*"name": *"\([^"]*\)".*"events_per_sec": *\([0-9][0-9]*\).*/\1 \2/p' "$1"
    }
    gate() { # $1 = stashed baseline, $2 = fresh file
        [ -s "$1" ] || {
            echo "==> no committed $2 baseline; nothing to gate" >&2
            return 0
        }
        echo "==> gating $2 against the committed baseline (limit ${GATE_PCT}%)" >&2
        pairs "$1" >"$BENCH_DIR/gate_base.txt"
        pairs "$2" >"$BENCH_DIR/gate_fresh.txt"
        awk -v limit="$GATE_PCT" '
            NR == FNR { base[$1] = $2; next }
            ($1 in base) && base[$1] > 0 {
                drop = (base[$1] - $2) / base[$1] * 100
                if (drop > limit) {
                    printf "    REGRESSION %-28s %12.0f -> %12.0f events/sec (-%.1f%%)\n", $1, base[$1], $2, drop
                    bad = 1
                } else {
                    printf "    ok         %-28s %12.0f -> %12.0f events/sec (%+.1f%%)\n", $1, base[$1], $2, -drop
                }
            }
            END { exit bad }' "$BENCH_DIR/gate_base.txt" "$BENCH_DIR/gate_fresh.txt" >&2
    }
    gate "$BENCH_DIR/base_ingest.json" "$OUT"
    gate "$BENCH_DIR/base_stream.json" "$STREAM_OUT"
    gate "$BENCH_DIR/base_replication.json" "$REPL_OUT"
    gate "$BENCH_DIR/base_trace.json" "$TRACE_OUT"
fi
