package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
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
	kill       func() // crash the primary: HTTP front end, shipper, listener
}

func startFailoverPair(t *testing.T) *failoverPair {
	t.Helper()
	params := core.DefaultParams().Scaled(10) // reactiveload's default -param-scale
	hash := server.ParamsHash(params)

	pl, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: hash, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ps := server.New(server.Config{Params: params, Shards: 4, WAL: pl})
	pts := httptest.NewServer(ps.Handler())
	sh := replica.NewShipper(replica.ShipperConfig{Log: pl, Logf: t.Logf})
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
	kill := func() {
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
	return &failoverPair{primaryURL: pts.URL, replicaURL: rts.URL, kill: kill}
}

// TestRunFailover drives -failover end to end in-process, on the external-
// crash path (-failover-pid 0): the primary dies without drain after a few
// acked batches, the run promotes the replica, resumes each worker from the
// replica's cursor, and every decision — pre-crash, re-sent overlap, and
// post-failover tail — verifies against the absolute-index mirror.
func TestRunFailover(t *testing.T) {
	p := startFailoverPair(t)

	// The external killer: crash the primary once worker 0 has a few batches
	// acked, so the loss lands mid-run.
	go func() {
		cl := server.Connect(p.primaryURL)
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			cur, err := cl.Cursor(context.Background(), "gzip@0")
			if err == nil && cur.Events >= 3*256 {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		p.kill()
	}()

	var out bytes.Buffer
	err := run([]string{
		"-addr", p.primaryURL,
		"-failover", p.replicaURL,
		"-bench", "gzip",
		"-events", "6000",
		"-concurrency", "2",
		"-batch", "256",
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
	// Every unique event index got exactly one verified decision: the tally
	// covers the full stream despite the crash and the re-sent overlap.
	if want := uint64(2 * 6000); rep.Events != want {
		t.Fatalf("events = %d, want %d", rep.Events, want)
	}
	var verdictTotal uint64
	for _, n := range rep.Verdicts {
		verdictTotal += n
	}
	if verdictTotal != rep.Events {
		t.Fatalf("verdict counts sum to %d, want %d", verdictTotal, rep.Events)
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

func TestRunFailoverFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-addr", "http://x", "-failover-pid", "1"},                              // pid without -failover
		{"-addr", "http://x", "-failover-after-batches", "4"},                    // threshold without -failover
		{"-addr", "http://x", "-failover", "http://y", "-stream"},                // stream conflict
		{"-addr", "http://x", "-failover", "http://y", "-frames", "2"},           // frames conflict
		{"-addr", "http://x", "-failover", "http://y", "-failover-pid", "12345"}, // pid without threshold
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
