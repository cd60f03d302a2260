package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"reactivespec/internal/obs"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// traceEqResult is one scenario run's observable output: every networked
// decision byte in ingest order, plus all counter-typed reactived_* samples
// from the primary's and the replica's registries.
type traceEqResult struct {
	decisions []byte
	counters  map[string]string
}

// counterSamples scrapes reg and returns sample-line → value for every
// family typed "counter" (gauges like uptime vary run to run; summaries
// carry timings that tracing legitimately does not change).
func counterSamples(t *testing.T, prefix string, reg *obs.Registry, into map[string]string) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	counter := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			counter[fields[2]] = fields[3] == "counter"
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			sp := strings.LastIndexByte(line, ' ')
			if counter[name] {
				into[prefix+line[:sp]] = line[sp+1:]
			}
		}
	}
}

// runTraceEquivalence drives identical traffic down all three ingest paths —
// per-batch POST, a streaming session, and direct replicated apply — against
// servers configured with the given tracer (nil = tracing off). Both WALs
// fsync on every commit, so the fsync counter follows the commits rather
// than an interval timer, and every commit still records a wal_fsync span.
func runTraceEquivalence(t *testing.T, tracer *obs.Tracer, replicaTrace uint64) traceEqResult {
	t.Helper()
	ctx := context.Background()
	wlog, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: ParamsHash(testParams()), Policy: wal.SyncAlways, Trace: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	s := New(Config{Params: testParams(), Shards: 4, WAL: wlog, Trace: tracer})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := Connect(ts.URL, WithHTTPClient(ts.Client()), WithTracer(tracer))

	evs := synthEvents(9000, 11)
	const chunk = 1500
	res := traceEqResult{counters: map[string]string{}}
	tally := func(ds []Decision) {
		for _, d := range ds {
			res.decisions = append(res.decisions, d.Encode())
		}
	}

	for off := 0; off < len(evs); off += chunk {
		ds, err := c.IngestKind(ctx, "post-prog", trace.KindBranch, evs[off:off+chunk])
		if err != nil {
			t.Fatal(err)
		}
		tally(ds)
	}

	st, err := openStream(t, s, "stream-prog", WithStreamTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(evs); off += chunk {
		if err := st.SendKind(ctx, trace.KindBranch, evs[off:off+chunk]); err != nil {
			t.Fatal(err)
		}
		ds, err := st.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tally(ds)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rlog, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: ParamsHash(testParams()), Policy: wal.SyncAlways, Trace: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer rlog.Close()
	r := New(Config{Params: testParams(), Shards: 4, WAL: rlog, Replica: true, Trace: tracer})
	for off := 0; off < len(evs); off += chunk {
		if _, err := r.ApplyReplicated("repl-prog", trace.EncodeFrameAppend(nil, evs[off:off+chunk]), replicaTrace); err != nil {
			t.Fatal(err)
		}
	}

	counterSamples(t, "primary/", s.Registry(), res.counters)
	counterSamples(t, "replica/", r.Registry(), res.counters)
	return res
}

// TestTracingEquivalence pins the zero-interference contract of the span
// tracer: with every batch sampled (1 in 1), decisions are byte-identical
// and every counter-typed reactived_* family lands on exactly the same
// values as a run with tracing compiled out (nil tracer), across the POST,
// stream, and replication apply paths.
func TestTracingEquivalence(t *testing.T) {
	off := runTraceEquivalence(t, nil, 0)

	tracer := obs.NewTracer("primary", 1)
	tracer.SetOutput(io.Discard) // exercise the encode+write path too
	defer tracer.Close()
	on := runTraceEquivalence(t, tracer, 42)

	if !bytes.Equal(off.decisions, on.decisions) {
		t.Errorf("decision bytes differ with tracing on: %d vs %d bytes", len(on.decisions), len(off.decisions))
	}
	var diffs []string
	for k, v := range off.counters {
		if ov, ok := on.counters[k]; !ok || ov != v {
			diffs = append(diffs, fmt.Sprintf("%s: off=%s on=%s", k, v, ov))
		}
	}
	for k := range on.counters {
		if _, ok := off.counters[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: only present with tracing on", k))
		}
	}
	if len(diffs) > 0 {
		t.Errorf("counters drift with tracing on:\n  %s", strings.Join(diffs, "\n  "))
	}
	if tracer.Dropped() != 0 {
		t.Errorf("tracer dropped %d spans with an unbounded sink", tracer.Dropped())
	}
}
