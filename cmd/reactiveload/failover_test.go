package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reactivespec/internal/core"
	"reactivespec/internal/replica"
	"reactivespec/internal/server"
	"reactivespec/internal/wal"
)

// failoverPair is an in-process primary/replica pair wired exactly as two
// reactived daemons would be: WAL-backed servers, a shipper on the primary's
// log, a follower feeding the replica through ApplyReplicated.
type failoverPair struct {
	primaryURL string
	replicaURL string
}

// statusWriter records the status code a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// startFailoverPair starts the pair and crashes the primary once killProgram
// has killAfter acked /v1/ingest batches: from then on the primary's front
// end cuts every request without a response, and the whole primary goes
// away. Keying the crash to the handler, not to a poller, lands it mid-run
// however fast the run is.
func startFailoverPair(t *testing.T, killProgram string, killAfter uint64) *failoverPair {
	t.Helper()
	// Param scale 100 (the run passes -param-scale 100): at the default 10
	// no unit leaves monitoring within the run, so a resume that lost the
	// mirror's controller state would still verify.
	params := core.DefaultParams().Scaled(100)
	hash := server.ParamsHash(params)

	pl, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: hash, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ps := server.New(server.Config{Params: params, Shards: 4, WAL: pl})
	var (
		kill  func()
		acked atomic.Uint64
		dead  atomic.Bool
	)
	inner := ps.Handler()
	pts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			panic(http.ErrAbortHandler) // the crashed primary never answers
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		inner.ServeHTTP(sw, r)
		if r.URL.Path == "/v1/ingest" && r.URL.Query().Get("program") == killProgram &&
			sw.status == http.StatusOK && acked.Add(1) == killAfter {
			dead.Store(true)
			// Closing the server waits for in-flight handlers, this one
			// included, so the teardown runs on its own goroutine.
			go kill()
		}
	}))
	sh := replica.NewShipper(replica.ShipperConfig{Log: pl, Logf: t.Logf})
	sh.RegisterMetrics(ps.Registry())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sh.Serve(ln)

	rl, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: hash, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	rs := server.New(server.Config{Params: params, Shards: 4, WAL: rl, Replica: true, Logf: t.Logf})
	rts := httptest.NewServer(rs.Handler())
	f := replica.StartFollower(replica.FollowerConfig{
		Addr:       ln.Addr().String(),
		ParamsHash: hash,
		NextSeq:    rl.NextSeq,
		Apply:      rs.ApplyReplicated,
		Logf:       t.Logf,
	})
	rs.SetSealFunc(f.Seal)

	var killOnce sync.Once
	kill = func() {
		killOnce.Do(func() {
			pts.CloseClientConnections()
			pts.Close()
			sh.Close()
			ln.Close()
		})
	}
	t.Cleanup(func() {
		rts.Close()
		f.Seal()
		rl.Close()
		kill()
		pl.Close()
	})
	return &failoverPair{primaryURL: pts.URL, replicaURL: rts.URL}
}

// TestRunFailover drives -failover end to end in-process, on the external-
// crash path (-failover-pid 0): the primary dies without drain once worker 0
// has three acked batches, the run promotes the replica, resumes each worker
// from the replica's cursor for its own program and kind, and every
// decision — pre-crash, re-sent overlap, and post-failover tail — verifies
// against the absolute-index mirror. The branch,value run has worker 0 send
// branch events and worker 1 value events.
func TestRunFailover(t *testing.T) {
	for _, kinds := range []string{"branch", "branch,value"} {
		t.Run(kinds, func(t *testing.T) {
			p := startFailoverPair(t, "gzip@0", 3)

			var out bytes.Buffer
			err := run([]string{
				"-addr", p.primaryURL,
				"-failover", p.replicaURL,
				"-bench", "gzip",
				"-kind", kinds,
				"-events", "6000",
				"-concurrency", "2",
				"-batch", "256",
				"-param-scale", "100",
			}, &out)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			var rep Report
			if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
				t.Fatalf("output not JSON: %v\n%s", err, out.String())
			}
			if rep.Mode != "failover" || !rep.Verified {
				t.Fatalf("mode %q verified %v, want failover/verified: %+v", rep.Mode, rep.Verified, rep)
			}
			if rep.Failover == nil || !rep.Failover.Promoted {
				t.Fatalf("no promotion in report: %+v", rep.Failover)
			}
			if rep.Failover.WorkersResumed == 0 {
				t.Fatalf("no worker resumed on the replica: %+v", rep.Failover)
			}
			// Every unique event index is accounted for exactly once despite
			// the crash and the re-sent overlap: either it got a verified
			// decision (Events), or the primary applied and shipped its batch
			// but the crash cut the response (AppliedUnacked) — at most one
			// batch per worker.
			if want := uint64(2 * 6000); rep.Events+rep.Failover.AppliedUnacked != want {
				t.Fatalf("events %d + applied-unacked %d = %d, want %d",
					rep.Events, rep.Failover.AppliedUnacked, rep.Events+rep.Failover.AppliedUnacked, want)
			}
			if limit := uint64(2 * 256); rep.Failover.AppliedUnacked > limit {
				t.Fatalf("applied-unacked = %d, more than one batch per worker (%d)", rep.Failover.AppliedUnacked, limit)
			}
			var verdictTotal uint64
			for _, n := range rep.Verdicts {
				verdictTotal += n
			}
			if verdictTotal != rep.Events {
				t.Fatalf("verdict counts sum to %d, want %d", verdictTotal, rep.Events)
			}
			if rep.Verdicts["correct"] == 0 {
				t.Fatalf("no speculated event verified (verdicts %v): the run never left monitoring", rep.Verdicts)
			}
		})
	}
}

// TestRunFailoverRejectsPrimaryTarget pins the up-front target check: a
// -failover URL pointing at a daemon that is not a replica fails before any
// event is sent.
func TestRunFailoverRejectsPrimaryTarget(t *testing.T) {
	base := testDaemon(t)
	err := run([]string{"-addr", base, "-failover", base}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "not a replica") {
		t.Fatalf("err = %v, want not-a-replica rejection", err)
	}
}

// TestReplicationSamples pins the kill-time scrape behind -dump-metrics:
// against a primary with a follower attached it returns the replication
// samples of the primary's /metrics, follower lag included, and no other
// line; a non-200 answer is an error.
func TestReplicationSamples(t *testing.T) {
	pair := startFailoverPair(t, "", 0) // no ingest, so the primary never crashes
	primary := server.Connect(pair.primaryURL)
	text, err := primary.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "\nreactived_wal_") {
		t.Fatalf("primary /metrics has no reactived_wal_ samples to filter out:\n%s", text)
	}
	// The follower attaches asynchronously; its lag sample appears once it
	// has.
	deadline := time.Now().Add(10 * time.Second)
	for {
		samples, err := replicationSamples(primary)
		if err != nil {
			t.Fatal(err)
		}
		lag := false
		for _, line := range samples {
			if !strings.HasPrefix(line, "reactived_replication_") {
				t.Fatalf("replicationSamples returned %q, not a replication sample", line)
			}
			lag = lag || strings.HasPrefix(line, "reactived_replication_follower_lag_records{")
		}
		if lag {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no follower lag sample among %q", samples)
		}
		time.Sleep(10 * time.Millisecond)
	}

	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "primary unavailable", http.StatusServiceUnavailable)
	}))
	defer down.Close()
	if samples, err := replicationSamples(server.Connect(down.URL)); err == nil {
		t.Fatalf("replicationSamples on a 503 = %q, nil; want an error", samples)
	}
}

func TestRunFailoverFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // error substring; "" accepts any error
	}{
		{[]string{"-addr", "http://x", "-failover-pid", "1"}, ""},                              // pid without -failover
		{[]string{"-addr", "http://x", "-failover-after-batches", "4"}, ""},                    // threshold without -failover
		{[]string{"-addr", "http://x", "-failover", "http://y", "-stream-addr", "z:1"}, ""},    // stream conflict
		{[]string{"-addr", "http://x", "-failover", "http://y", "-frames", "2"}, ""},           // frames conflict
		{[]string{"-addr", "http://x", "-failover", "http://y", "-failover-pid", "12345"}, ""}, // pid without threshold
		// Neither may fall through to the external-crash path, which
		// kills nothing.
		{[]string{"-addr", "http://x", "-failover", "http://y", "-failover-pid", "-1", "-failover-after-batches", "4"}, "-failover-pid must be a positive pid"},
		{[]string{"-addr", "http://x", "-failover", "http://y", "-failover-after-batches", "4"}, "-failover-after-batches requires -failover-pid"},
		// The kill-time snapshot reads the primary's /metrics; there is no
		// second debug URL to name.
		{[]string{"-addr", "http://x", "-failover-debug", "http://z"}, "flag provided but not defined"},
	} {
		err := run(tc.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
