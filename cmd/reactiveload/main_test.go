package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/workload"
)

// testDaemon serves a real server.Server over httptest with the default
// reactiveload parameter scale so -verify can mirror it.
func testDaemon(t *testing.T) string {
	base, _ := testStreamDaemon(t)
	return base
}

// testStreamDaemon is testDaemon plus a raw TCP stream listener; it returns
// the HTTP base URL and the stream listener's address.
func testStreamDaemon(t *testing.T) (base, streamAddr string) {
	t.Helper()
	s := server.New(server.Config{Params: core.DefaultParams().Scaled(10), Shards: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go s.ServeStream(ln)
	return ts.URL, ln.Addr().String()
}

func TestRunVerifiedLoad(t *testing.T) {
	base := testDaemon(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base,
		"-bench", "gzip",
		"-scale", "0.01",
		"-concurrency", "3",
		"-batch", "512",
		"-verify",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, out.String())
	}
	if rep.Events == 0 || rep.Batches == 0 {
		t.Fatalf("empty run: %+v", rep)
	}
	if !rep.Verified {
		t.Fatal("report not marked verified")
	}
	if rep.EventsPerS <= 0 || rep.BatchP50Ms <= 0 || rep.BatchP99Ms < rep.BatchP50Ms {
		t.Fatalf("implausible rates: %+v", rep)
	}
	var verdictTotal uint64
	for _, n := range rep.Verdicts {
		verdictTotal += n
	}
	if verdictTotal != rep.Events {
		t.Fatalf("verdict counts sum to %d, want %d", verdictTotal, rep.Events)
	}
	// The per-phase breakdown must cover all three client phases with
	// plausible (positive, ordered) quantiles.
	for _, name := range []string{"encode", "network", "decode"} {
		p, ok := rep.Phases[name]
		if !ok {
			t.Fatalf("phase %q missing from report: %+v", name, rep.Phases)
		}
		if p.P50Ms <= 0 || p.P99Ms < p.P50Ms {
			t.Fatalf("phase %q has implausible quantiles: %+v", name, p)
		}
	}
	// The network phase contains the server round trip, so it dominates
	// the pure-CPU encode phase.
	if rep.Phases["network"].P50Ms < rep.Phases["encode"].P50Ms {
		t.Fatalf("network p50 %v < encode p50 %v", rep.Phases["network"].P50Ms, rep.Phases["encode"].P50Ms)
	}
}

func TestRunDumpMetrics(t *testing.T) {
	base := testDaemon(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base,
		"-events", "2000",
		"-concurrency", "1",
		"-batch", "500",
		"-dump-metrics",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// -dump-metrics goes to stderr (not capturable here without process
	// plumbing); the JSON report on out must still be intact.
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output not JSON with -dump-metrics: %v", err)
	}
}

func TestRunVerifyDetectsParamMismatch(t *testing.T) {
	base := testDaemon(t) // daemon runs at scale 10
	var out bytes.Buffer
	err := run([]string{
		"-addr", base,
		"-scale", "0.01",
		"-concurrency", "1",
		"-param-scale", "1", // mirror at full Table 2 parameters
		"-verify",
	}, &out)
	// The /v1/info params-hash precheck rejects the pairing before a single
	// event is sent, with the typed sentinel rather than a mid-run
	// decision-by-decision diff.
	if !errors.Is(err, server.ErrParamsMismatch) {
		t.Fatalf("err = %v, want ErrParamsMismatch", err)
	}
}

// TestRunStreamVerifiedLoad drives -stream-addr end to end with verification:
// every decision received over the session must match the in-process mirror,
// which transitively pins stream decisions to the POST path (the mirror is
// the same controller the POST equivalence tests check against).
func TestRunStreamVerifiedLoad(t *testing.T) {
	base, streamAddr := testStreamDaemon(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base,
		"-bench", "gzip",
		"-scale", "0.01",
		"-concurrency", "2",
		"-batch", "512",
		"-stream-addr", streamAddr,
		"-window", "4",
		"-verify",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, out.String())
	}
	if rep.Mode != "stream" {
		t.Fatalf("mode = %q, want stream", rep.Mode)
	}
	if rep.Window != 4 {
		t.Fatalf("window = %d, want 4", rep.Window)
	}
	if rep.Events == 0 || !rep.Verified {
		t.Fatalf("empty or unverified run: %+v", rep)
	}
	var verdictTotal uint64
	for _, n := range rep.Verdicts {
		verdictTotal += n
	}
	if verdictTotal != rep.Events {
		t.Fatalf("verdict counts sum to %d, want %d", verdictTotal, rep.Events)
	}
	if len(rep.Phases) != 0 {
		t.Fatalf("stream mode reported POST phase breakdown: %+v", rep.Phases)
	}
}

// TestRunStreamMatchesPostTallies runs the identical seeded workload in both
// modes against fresh daemons: the aggregate verdict and decision tallies
// must agree exactly.
func TestRunStreamMatchesPostTallies(t *testing.T) {
	args := func(base string, extra ...string) []string {
		return append([]string{
			"-addr", base,
			"-bench", "gzip",
			"-scale", "0.01",
			"-concurrency", "2",
			"-batch", "256",
			"-seed", "42",
		}, extra...)
	}
	var postOut, streamOut bytes.Buffer
	if err := run(args(testDaemon(t)), &postOut); err != nil {
		t.Fatal(err)
	}
	base, streamAddr := testStreamDaemon(t)
	if err := run(args(base, "-stream-addr", streamAddr), &streamOut); err != nil {
		t.Fatal(err)
	}
	var post, stream Report
	if err := json.Unmarshal(postOut.Bytes(), &post); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(streamOut.Bytes(), &stream); err != nil {
		t.Fatal(err)
	}
	if post.Events != stream.Events {
		t.Fatalf("events: post %d, stream %d", post.Events, stream.Events)
	}
	if !reflect.DeepEqual(post.Verdicts, stream.Verdicts) {
		t.Fatalf("verdicts differ: post %v, stream %v", post.Verdicts, stream.Verdicts)
	}
	if !reflect.DeepEqual(post.Decisions, stream.Decisions) {
		t.Fatalf("decisions differ: post %v, stream %v", post.Decisions, stream.Decisions)
	}
}

func TestRunStreamRejectsFramesFlag(t *testing.T) {
	err := run([]string{"-addr", "http://127.0.0.1:1", "-stream-addr", "127.0.0.1:1", "-frames", "2"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-frames") {
		t.Fatalf("err = %v, want -frames conflict", err)
	}
}

func TestRunWithFaultsAndEventCap(t *testing.T) {
	base := testDaemon(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base,
		"-events", "3000",
		"-concurrency", "2",
		"-batch", "256",
		"-intensity", "0.5",
		"-verify",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	// Faults drop and duplicate events, so the cap bounds but does not pin
	// the count; it must still be near 2 workers x 3000.
	if rep.Events == 0 || rep.Events > 6000 {
		t.Fatalf("events = %d, want (0, 6000]", rep.Events)
	}
}

func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{},                                    // missing -addr
		{"-addr", "http://x", "-input", "zz"}, // bad input
		{"-addr", "http://x", "-bench", "nope"},
		{"-addr", "http://x", "-concurrency", "0"},
		{"-addr", "http://x", "-intensity", "1.5"},
		{"-addr", "http://x", "positional"},
		// Stream mode is selected by -stream-addr alone, with one decision wire.
		{"-addr", "http://x", "-stream"},
		{"-addr", "http://x", "-decisions", "plain"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunUnreachableDaemon(t *testing.T) {
	err := run([]string{"-addr", "http://127.0.0.1:1"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "not reachable") {
		t.Fatalf("err = %v, want not-reachable", err)
	}
}

// TestSourceSkipMatchesFullRun pins the premise a failover resume rests on:
// a fresh source skipped to event k yields the same events, and its mirror
// the same decisions, as one full run does from k on. The config has fault
// injection, an event cap and a non-branch kind; k is the start, mid-batch,
// a batch boundary and the end. Skipping past the end fails.
func TestSourceSkipMatchesFullRun(t *testing.T) {
	cfg := workerConfig{
		program:   "gzip@0",
		bench:     "gzip",
		input:     workload.InputEval,
		scale:     0.05,
		events:    3000,
		batch:     256,
		frames:    1,
		seed:      7,
		kind:      trace.KindValue,
		policy:    core.PolicyReactive,
		intensity: 0.5,
		params:    core.DefaultParams().Scaled(100), // units leave monitoring within the cap
		verify:    true,
	}
	full, err := newSource(cfg, &workerResult{})
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	var want []server.Decision
	for {
		_, batch := full.next(nil)
		if len(batch) == 0 {
			break
		}
		for _, ev := range batch {
			events = append(events, ev)
			want = append(want, full.mir.step(ev))
		}
	}
	total := uint64(len(events))
	if total <= 2*uint64(cfg.batch) || total > cfg.events {
		t.Fatalf("full run has %d events, want (%d, %d]", total, 2*cfg.batch, cfg.events)
	}
	// The skip must carry the controller state: a cold mirror over the same
	// tail decides differently, so the comparison below can fail.
	cold, err := newMirror(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := 2 * uint64(cfg.batch)
	for i, ev := range events[k:] {
		if cold.step(ev) != want[k+uint64(i)] {
			break
		}
		if k+uint64(i) == total-1 {
			t.Fatal("a cold mirror over the tail matches the full run; the config exercises no state")
		}
	}

	for _, k := range []uint64{0, 100, 2 * uint64(cfg.batch), total} {
		var res workerResult
		src, err := newSource(cfg, &res)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.skip(k); err != nil {
			t.Fatalf("skip(%d): %v", k, err)
		}
		var got []server.Decision
		for {
			off, batch := src.next(nil)
			if len(batch) == 0 {
				break
			}
			end := off + uint64(len(batch))
			if !slices.Equal(batch, events[off:end]) {
				t.Fatalf("skip(%d): events [%d, %d) differ from the full run", k, off, end)
			}
			for _, ev := range batch {
				got = append(got, src.mir.step(ev))
			}
		}
		if !slices.Equal(got, want[k:]) {
			t.Fatalf("skip(%d): %d mirror decisions differ from the full run's last %d", k, len(got), total-k)
		}
	}

	// accept verifies and tallies at absolute indices: a source skipped to
	// mid-batch accepts the full run's decisions, and a preset high-water
	// mark keeps the overlap below it out of the totals.
	res := workerResult{acked: 300}
	src, err := newSource(cfg, &res)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.skip(100); err != nil {
		t.Fatal(err)
	}
	for {
		off, batch := src.next(nil)
		if len(batch) == 0 {
			break
		}
		if err := src.accept(off, batch, want[off:off+uint64(len(batch))]); err != nil {
			t.Fatal(err)
		}
	}
	if res.events != total-300 || res.acked != total {
		t.Fatalf("tallied %d events up to %d, want %d up to %d", res.events, res.acked, total-300, total)
	}

	src, err = newSource(cfg, &workerResult{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.skip(total + 1); err == nil || !strings.Contains(err.Error(), "beyond the stream") {
		t.Fatalf("skip(%d) past the %d-event stream: err = %v, want beyond-the-stream", total+1, total, err)
	}
}
