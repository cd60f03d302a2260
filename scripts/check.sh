#!/usr/bin/env sh
# Tier-1 verification gate: static analysis, full build, the test suite
# under the race detector (race mode exercises the hardened parallel
# experiment drivers), and an end-to-end smoke run of the serving mode
# (reactiveload driving an ephemeral reactived over localhost with decision
# verification on). Run from anywhere inside the repository.
# Before any of that it fails on every Go file gofmt -l lists.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -l lists files that need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# The observability layer, the server and the replication follower share
# lock-striped and atomic hot paths (the follower applies through the
# server's commit step), the session layer's drain and close race its
# connection handlers, and the WAL's live reader races its appender; run
# them twice under the race detector so scheduling-order races get a second
# chance to surface.
echo "==> go test -race -count=2 ./internal/obs ./internal/server ./internal/replica ./internal/session ./internal/wal"
go test -race -count=2 ./internal/obs ./internal/server ./internal/replica ./internal/session ./internal/wal

# perfbench is its own Go module, so the root ./... above never builds it,
# yet it compiles against the server's table and stream APIs.
echo "==> (cd perfbench && go vet ./... && go test ./...)"
(cd perfbench && go vet ./... && go test ./...)

echo "==> serving-mode smoke (reactiveload vs ephemeral reactived)"
SMOKE_DIR=$(mktemp -d)
DAEMON_PID=""
REPLICA_PID=""
# On failure, preserve the daemon logs, the WAL directories, and the failover
# report for post-mortem when the caller points CHECK_ARTIFACT_DIR somewhere
# (CI uploads them).
cleanup() {
    status=$?
    if [ "$status" -ne 0 ] && [ -n "${CHECK_ARTIFACT_DIR:-}" ]; then
        mkdir -p "$CHECK_ARTIFACT_DIR"
        cp "$SMOKE_DIR"/*.log "$CHECK_ARTIFACT_DIR"/ 2>/dev/null || true
        cp "$SMOKE_DIR"/*.json "$CHECK_ARTIFACT_DIR"/ 2>/dev/null || true
        cp "$SMOKE_DIR"/*.jsonl "$CHECK_ARTIFACT_DIR"/ 2>/dev/null || true
        cp "$SMOKE_DIR"/*.txt "$CHECK_ARTIFACT_DIR"/ 2>/dev/null || true
        for d in "$SMOKE_DIR"/wal*; do
            [ -d "$d" ] && cp -r "$d" "$CHECK_ARTIFACT_DIR/$(basename "$d")" 2>/dev/null || true
        done
    fi
    for pid in "$DAEMON_PID" "$REPLICA_PID"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT INT TERM

# wait_published PID LOG LABEL FILE...: wait up to 10 s (100 x 0.1 s) until
# every FILE is non-empty — a daemon publishes each bound address through
# its -*-addr-file — and fail with the daemon's LOG if it exits first or
# never publishes them all.
wait_published() {
    wait_pid=$1 wait_log=$2 wait_label=$3
    shift 3
    wait_i=0
    for wait_file in "$@"; do
        while [ ! -s "$wait_file" ]; do
            wait_i=$((wait_i + 1))
            if [ "$wait_i" -gt 100 ]; then
                echo "$wait_label never published its address" >&2
                cat "$wait_log" >&2
                exit 1
            fi
            kill -0 "$wait_pid" 2>/dev/null || {
                echo "$wait_label exited early" >&2
                cat "$wait_log" >&2
                exit 1
            }
            sleep 0.1
        done
    done
}

go build -o "$SMOKE_DIR/reactived" ./cmd/reactived
go build -o "$SMOKE_DIR/reactiveload" ./cmd/reactiveload
go build -o "$SMOKE_DIR/reactivespec" ./cmd/reactivespec

# Table 3 and the flush ablation at full scale must match the committed
# all_output.txt sections byte for byte: the reactive controller's decisions
# and its Stats counting, and the selftrain policy relearning after every
# flush, are pinned end to end, not only by the unit tests at small scale.
for verb in table3 flush; do
    echo "==> $verb pin (reactivespec $verb vs all_output.txt)"
    awk -v s="=== $verb ===" '$0 == s {f = 1; next} /^=== / {f = 0} f' all_output.txt |
        sed '${/^$/d;}' >"$SMOKE_DIR/$verb-pinned.txt"
    if [ ! -s "$SMOKE_DIR/$verb-pinned.txt" ]; then
        echo "all_output.txt has no $verb section" >&2
        exit 1
    fi
    "$SMOKE_DIR/reactivespec" "$verb" >"$SMOKE_DIR/$verb.txt"
    diff -u "$SMOKE_DIR/$verb-pinned.txt" "$SMOKE_DIR/$verb.txt"
done

# Random port; the daemon publishes the bound address through -addr-file.
# This smoke runs with span tracing at 1-in-1 so every batch leaves a full
# server-side span tree; reactivespec spans must parse it afterwards.
"$SMOKE_DIR/reactived" \
    -addr 127.0.0.1:0 \
    -addr-file "$SMOKE_DIR/addr" \
    -stream-addr 127.0.0.1:0 \
    -stream-addr-file "$SMOKE_DIR/stream-addr" \
    -snapshot-dir "$SMOKE_DIR/snaps" \
    -snapshot-interval 0 \
    -trace-spans "$SMOKE_DIR/spans-serve.jsonl" \
    -trace-sample 1 >"$SMOKE_DIR/reactived.log" 2>&1 &
DAEMON_PID=$!

wait_published "$DAEMON_PID" "$SMOKE_DIR/reactived.log" "reactived" "$SMOKE_DIR/addr"
ADDR=$(cat "$SMOKE_DIR/addr")

"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -bench gzip \
    -scale 0.02 \
    -concurrency 2 \
    -batch 512 \
    -frames 2 \
    -trace-spans "$SMOKE_DIR/spans-load.jsonl" \
    -verify

# Mixed-kind smoke: four workers round-robin all four speculation kinds
# against the same daemon — every POST names its kind on /v1/ingest — and
# -verify holds every decision to a per-kind in-process mirror. -policy
# reactive also exercises the policy-pin precheck (identical hash to the
# daemon's default).
echo "==> mixed-kind smoke (branch,value,memdep,tlspec on one daemon)"
"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -bench eon \
    -scale 0.02 \
    -concurrency 4 \
    -batch 512 \
    -kind branch,value,memdep,tlspec \
    -policy reactive \
    -verify

# A verified workload over a streaming session on the raw -stream-addr TCP
# listener: decisions must match the in-process mirror exactly, pinning
# stream-transport equivalence end to end. Each smoke run uses a distinct
# benchmark so its programs hit fresh controllers — the daemon keeps the
# state the previous run trained, and -verify's mirror starts cold.
echo "==> streaming-mode smoke (reactiveload -stream-addr -verify)"
"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -stream-addr "$(cat "$SMOKE_DIR/stream-addr")" \
    -bench mcf \
    -scale 0.02 \
    -concurrency 2 \
    -batch 512 \
    -window 8 \
    -verify

# Graceful shutdown must drain and leave a final snapshot behind.
kill "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""
if [ ! -f "$SMOKE_DIR/snaps/current.snap" ]; then
    echo "reactived shutdown left no snapshot" >&2
    exit 1
fi

# The traced smoke must have left parseable span files on both sides, and
# the analyzer must see traced batches in them (client spans join the same
# traces via the propagated trace IDs).
echo "==> span-trace smoke (reactivespec spans over the serving-smoke files)"
"$SMOKE_DIR/reactivespec" spans \
    "$SMOKE_DIR/spans-serve.jsonl" \
    "$SMOKE_DIR/spans-load.jsonl" >"$SMOKE_DIR/spans-serve-report.txt"
if ! grep -q "traced batches" "$SMOKE_DIR/spans-serve-report.txt" ||
    grep -q "traced batches: 0" "$SMOKE_DIR/spans-serve-report.txt"; then
    echo "span report has no traced batches" >&2
    cat "$SMOKE_DIR/spans-serve-report.txt" >&2
    exit 1
fi

# Crash-recovery smoke: run the daemon with the write-ahead log on
# (fsync=always, so nothing acknowledged may be lost), SIGKILL it in the
# middle of an ingest run, restart it over the same directories, and require
# (a) the restart to report a WAL replay and (b) a verified workload against
# the recovered daemon to pass. Each load uses a bench the daemon has not
# seen, because -verify's in-process mirror starts cold.
echo "==> crash-recovery smoke (SIGKILL mid-ingest, WAL replay on restart)"
"$SMOKE_DIR/reactived" \
    -addr 127.0.0.1:0 \
    -addr-file "$SMOKE_DIR/addr2" \
    -snapshot-dir "$SMOKE_DIR/snaps2" \
    -snapshot-interval 0 \
    -wal-dir "$SMOKE_DIR/wal" \
    -wal-fsync always >"$SMOKE_DIR/reactived-crash.log" 2>&1 &
DAEMON_PID=$!
wait_published "$DAEMON_PID" "$SMOKE_DIR/reactived-crash.log" "reactived (wal)" "$SMOKE_DIR/addr2"
ADDR=$(cat "$SMOKE_DIR/addr2")

# A verified load with the WAL on the write path.
"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -bench gcc \
    -scale 0.02 \
    -concurrency 2 \
    -batch 512 \
    -verify

# SIGKILL the daemon while a second load is mid-flight; the client is
# expected to fail when the connection dies.
"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -bench parser \
    -scale 0.2 \
    -concurrency 2 \
    -batch 256 >/dev/null 2>&1 &
LOAD_PID=$!
sleep 0.5
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
wait "$LOAD_PID" 2>/dev/null || true

# Restart over the same WAL + snapshot directories: recovery must replay.
"$SMOKE_DIR/reactived" \
    -addr 127.0.0.1:0 \
    -addr-file "$SMOKE_DIR/addr3" \
    -snapshot-dir "$SMOKE_DIR/snaps2" \
    -snapshot-interval 0 \
    -wal-dir "$SMOKE_DIR/wal" \
    -wal-fsync always >"$SMOKE_DIR/reactived-recovered.log" 2>&1 &
DAEMON_PID=$!
wait_published "$DAEMON_PID" "$SMOKE_DIR/reactived-recovered.log" "reactived (recovering after SIGKILL)" "$SMOKE_DIR/addr3"
ADDR=$(cat "$SMOKE_DIR/addr3")

# The pre-crash loads were acknowledged under fsync=always, so recovery
# must have replayed a nonzero tail.
if ! grep "wal: replayed" "$SMOKE_DIR/reactived-recovered.log" | grep -qv "replayed 0 records"; then
    echo "recovered reactived did not report a nonzero WAL replay" >&2
    cat "$SMOKE_DIR/reactived-recovered.log" >&2
    exit 1
fi

# A verified load against the recovered daemon, on a bench the crashed run
# never trained.
"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -bench twolf \
    -scale 0.02 \
    -concurrency 2 \
    -batch 512 \
    -verify

kill "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""

# Failover smoke: a WAL-shipping primary with a live read-only replica
# attached; reactiveload -failover drives the primary, SIGKILLs it mid-run
# (no drain), promotes the replica over POST /v1/promote, resumes every
# worker from the replica's /v1/cursor for its own program and kind (-kind
# branch,value: worker 0 sends branch events, worker 1 value events), and
# requires each decision — before the crash, re-sent overlap, and the
# surviving tail — to match its in-process mirror bitwise. reactiveload
# exits nonzero if the kill never landed mid-run, so this smoke cannot
# silently degrade into a plain load. Both daemons and the load run at
# -param-scale 100, where units leave monitoring within the run, and the
# report must count verified correct speculations: a resume that lost the
# mirror's controller state then shows up as a mismatch.
echo "==> failover smoke (SIGKILL primary mid-run, promote replica, verified resume)"
"$SMOKE_DIR/reactived" \
    -addr 127.0.0.1:0 \
    -addr-file "$SMOKE_DIR/addr-primary" \
    -snapshot-dir "$SMOKE_DIR/snaps-primary" \
    -snapshot-interval 0 \
    -wal-dir "$SMOKE_DIR/wal-primary" \
    -wal-fsync always \
    -param-scale 100 \
    -replication-addr 127.0.0.1:0 \
    -replication-addr-file "$SMOKE_DIR/repl-addr" \
    -trace-spans "$SMOKE_DIR/spans-primary.jsonl" \
    -trace-sample 1 >"$SMOKE_DIR/reactived-primary.log" 2>&1 &
DAEMON_PID=$!
wait_published "$DAEMON_PID" "$SMOKE_DIR/reactived-primary.log" "primary reactived" \
    "$SMOKE_DIR/addr-primary" "$SMOKE_DIR/repl-addr"

"$SMOKE_DIR/reactived" \
    -addr 127.0.0.1:0 \
    -addr-file "$SMOKE_DIR/addr-replica" \
    -snapshot-dir "$SMOKE_DIR/snaps-replica" \
    -snapshot-interval 0 \
    -wal-dir "$SMOKE_DIR/wal-replica" \
    -wal-fsync always \
    -param-scale 100 \
    -trace-spans "$SMOKE_DIR/spans-replica.jsonl" \
    -trace-sample 1 \
    -replica-of "$(cat "$SMOKE_DIR/repl-addr")" >"$SMOKE_DIR/reactived-replica.log" 2>&1 &
REPLICA_PID=$!
wait_published "$REPLICA_PID" "$SMOKE_DIR/reactived-replica.log" "replica reactived" "$SMOKE_DIR/addr-replica"

"$SMOKE_DIR/reactiveload" \
    -addr "http://$(cat "$SMOKE_DIR/addr-primary")" \
    -failover "http://$(cat "$SMOKE_DIR/addr-replica")" \
    -failover-pid "$DAEMON_PID" \
    -failover-after-batches 6 \
    -dump-metrics \
    -trace-spans "$SMOKE_DIR/spans-loadgen.jsonl" \
    -bench crafty \
    -kind branch,value \
    -scale 0.2 \
    -events 6000 \
    -concurrency 2 \
    -batch 256 \
    -param-scale 100 >"$SMOKE_DIR/failover-report.json" 2>"$SMOKE_DIR/failover-metrics.txt"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

if ! grep -Eq '"correct": [1-9]' "$SMOKE_DIR/failover-report.json"; then
    echo "failover run verified no speculated event (no unit left monitoring)" >&2
    cat "$SMOKE_DIR/failover-report.json" >&2
    exit 1
fi

# With -failover-pid, -dump-metrics must have echoed the primary's
# replication samples from its /metrics in its last instant alive, the
# attached replica's lag among them.
if ! grep -q "^# primary replication metrics at kill time" "$SMOKE_DIR/failover-metrics.txt" ||
    ! grep -Eq '^# reactived_replication_follower_lag_records\{follower="[^"]+"\} [0-9]+$' \
        "$SMOKE_DIR/failover-metrics.txt"; then
    echo "failover run captured no kill-time follower lag sample from the primary's /metrics" >&2
    cat "$SMOKE_DIR/failover-metrics.txt" >&2
    exit 1
fi

# The promoted replica must say so in its own log, and still be alive.
if ! grep -q "promoted to primary" "$SMOKE_DIR/reactived-replica.log"; then
    echo "replica log never recorded the promotion" >&2
    cat "$SMOKE_DIR/reactived-replica.log" >&2
    exit 1
fi
kill -0 "$REPLICA_PID" 2>/dev/null || {
    echo "promoted replica is not running" >&2
    cat "$SMOKE_DIR/reactived-replica.log" >&2
    exit 1
}
kill "$REPLICA_PID"
wait "$REPLICA_PID"
REPLICA_PID=""

# The concatenated primary + replica span files must contain at least one
# complete cross-node chain — a traced batch observed through its WAL
# append, the replication ship, and the follower's apply. -require-chain
# makes the analyzer itself fail otherwise, so propagation cannot silently
# rot into single-node traces.
echo "==> cross-node span chain (reactivespec -require-chain spans)"
"$SMOKE_DIR/reactivespec" -require-chain spans \
    "$SMOKE_DIR/spans-primary.jsonl" \
    "$SMOKE_DIR/spans-replica.jsonl" \
    "$SMOKE_DIR/spans-loadgen.jsonl" >"$SMOKE_DIR/spans-failover-report.txt"

# A short fuzz run of every decoder that reads bytes off a wire: the four
# hello/ack decoders (stream and replication), session frames, RLE decision
# payloads and the choice between the two decision frame forms, shipped
# replication records, and the one trace frame walker — DecodeFrameAppend,
# the only decoder every ingest path runs, and ValidateFrame beside it —
# and of the decoders that read bytes back from disk: snapshot restore,
# which must reject any entry it cannot round-trip, and the WAL's record
# decoder and Open, which crash recovery runs (Open checks CRCs without
# decoding frames and cuts only a torn tail: a length prefix (zero
# included) or CRC that fails on the final segment; a CRC-valid record that does not parse is
# corruption, which the decoding replay rejects); of the two
# open-addressed tables, each against a map; and of the controller: its
# invariants, and value speculation against the branch FSM it shares.
# Each line names a package and its fuzz targets.
while read -r pkg targets; do
    for target in $targets; do
        echo "==> go test -fuzz=$target -fuzztime=5s $pkg"
        go test -run='^$' -fuzz="^$target\$" -fuzztime=5s "$pkg" </dev/null
    done
done <<'FUZZ'
./internal/trace FuzzStreamHandshake FuzzSessionFrame FuzzDecisionsRLE FuzzDecisionsFrame FuzzDecodeReplRecord FuzzDecodeFrameAppend FuzzValidateFrame
./internal/server FuzzRestoreEntries FuzzTableIndex FuzzApplyMatchesRef
./internal/cache FuzzDirectory
./internal/core FuzzController FuzzValueMatchesBranch
./internal/wal FuzzSegmentRecords FuzzOpenSegment
FUZZ

# One iteration of every benchmark, so a bench that rots (compile error,
# panic, bad setup) fails the gate long before anyone needs its numbers.
echo "==> benchmark smoke (-benchtime=1x)"
go test -run='^$' -bench=. -benchtime=1x ./...

echo "==> OK"
