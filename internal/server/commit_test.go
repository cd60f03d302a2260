package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"reactivespec/internal/obs"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// tracedServer returns a WAL-backed server whose tracer samples every batch,
// and the tracer.
func tracedServer(t *testing.T) (*Server, *obs.Tracer) {
	t.Helper()
	wlog, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: ParamsHash(testParams())})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wlog.Close() })
	tracer := obs.NewTracer("primary", 1)
	t.Cleanup(func() { tracer.Close() })
	return New(Config{Params: testParams(), Shards: 4, WAL: wlog, Trace: tracer}), tracer
}

// postBatch serves one POST ingest of evs as a single frame through the
// handler directly, so the batch's spans and histograms are recorded by the
// time it returns.
func postBatch(t *testing.T, s *Server, path string, evs []trace.Event) {
	t.Helper()
	var body bytes.Buffer
	if err := trace.WriteFrame(&body, evs); err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, &body))
	if rr.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, rr.Code, rr.Body.String())
	}
}

// streamFrame sends evs as one stream frame of the given kind and waits for
// its decisions; the server records the frame's spans before it flushes them.
func streamFrame(t *testing.T, s *Server, kind trace.Kind, evs []trace.Event) {
	t.Helper()
	ctx := context.Background()
	st, err := openStream(t, s, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SendKind(ctx, kind, evs); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// recordedSpans returns every span the tracer's ring holds.
func recordedSpans(t *testing.T, tr *obs.Tracer) []obs.Span {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	spans, dropped, err := obs.LoadSpans(&buf)
	if err != nil || dropped != 0 {
		t.Fatalf("LoadSpans: %v; %d span lines did not parse", err, dropped)
	}
	return spans
}

// TestServerSpansCarryPlainProgram pins that batch and stage spans name the
// program the client sent, never the kind-encoded table key, on both ingest
// transports.
func TestServerSpansCarryPlainProgram(t *testing.T) {
	s, tracer := tracedServer(t)
	postBatch(t, s, "/v2/ingest?program=gzip&kind=value", synthEvents(300, 1))
	streamFrame(t, s, trace.KindValue, synthEvents(300, 2))

	var batches int
	for _, sp := range recordedSpans(t, tracer) {
		if sp.Stage == "batch" {
			batches++
		}
		if sp.Program == "" {
			continue
		}
		if sp.Program != "gzip" || strings.IndexByte(sp.Program, 0) >= 0 {
			t.Errorf("%s span carries program %q, want %q", sp.Stage, sp.Program, "gzip")
		}
	}
	if batches != 2 {
		t.Fatalf("%d batch roots, want 2 (one POST batch, one stream frame)", batches)
	}
}

// TestIngestTransportsShareStageVocabulary pins the one stage clock: a POST
// batch and a stream frame each leave a batch root whose children are
// exactly the five pipeline stages and fit inside it, and both feed the
// same batch and stage histograms.
func TestIngestTransportsShareStageVocabulary(t *testing.T) {
	s, tracer := tracedServer(t)
	postBatch(t, s, "/v1/ingest?program=gzip", synthEvents(300, 1))
	streamFrame(t, s, trace.KindBranch, synthEvents(300, 2))

	spans := recordedSpans(t, tracer)
	var roots []obs.Span
	children := map[uint64][]obs.Span{}
	for _, sp := range spans {
		if sp.Stage == "batch" {
			roots = append(roots, sp)
		} else if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	if len(roots) != 2 {
		t.Fatalf("%d batch roots, want 2", len(roots))
	}
	want := []string{"decode", "wal_append", "fsync", "apply", "respond"}
	for i, root := range roots {
		var got []string
		var sum int64
		for _, c := range children[root.Span] {
			got = append(got, c.Stage)
			sum += c.Dur
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("batch %d children %v, want %v", i, got, want)
		}
		if sum > root.Dur {
			t.Errorf("batch %d: children sum to %d ns, more than the root's %d ns", i, sum, root.Dur)
		}
	}

	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	for _, sample := range []string{
		"reactived_batches_total 2",
		"reactived_batch_latency_seconds_count 2",
		"reactived_ingest_decode_seconds_count 2",
		"reactived_ingest_apply_seconds_count 2",
		"reactived_ingest_respond_seconds_count 2",
	} {
		if !strings.Contains(exposition, sample+"\n") {
			t.Errorf("/metrics lacks %q", sample)
		}
	}
}

// TestRecoverRejectsInvalidMidLogFrame pins that replay validates every
// record before applying it: a checksummed record whose frame does not parse,
// in a segment that is not the log's last, fails recovery as a malformed
// segment instead of reaching the table.
func TestRecoverRejectsInvalidMidLogFrame(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{Dir: dir, ParamsHash: ParamsHash(testParams()), SegmentBytes: 1 << 10}
	l, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	good := trace.EncodeFrameAppend(nil, synthEvents(50, 1))
	if _, err := l.AppendPayload("gzip", good); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendPayload("gzip", []byte("not a trace frame")); err != nil {
		t.Fatal(err)
	}
	// Enough good records after it to rotate past the bad one's segment.
	for i := 0; i < 20; i++ {
		if _, err := l.AppendPayload("gzip", good); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := New(Config{Params: testParams(), Shards: 4, WAL: l})
	_, err = s.Recover()
	if !errors.Is(err, wal.ErrBadSegment) || !strings.Contains(err.Error(), "replaying wal record 1") {
		t.Fatalf("Recover = %v, want ErrBadSegment at record 1", err)
	}
}

// TestApplyReplicatedConcurrentPrograms drives ApplyReplicated for several
// programs from several goroutines at once, with snapshots cutting in, and
// pins the result to a server that ingested the same batches one by one. An
// invalid frame is refused before it reaches the log or the table.
func TestApplyReplicatedConcurrentPrograms(t *testing.T) {
	programs := []string{"gzip", "vpr", "mcf", "gcc"}
	var batches []walBatch
	for i := 0; i < 6; i++ {
		for j, p := range programs {
			batches = append(batches, walBatch{p, 200 + 50*j, uint64(10*i + j)})
		}
	}
	control, _ := controlState(t, 4, "", batches, len(batches))

	s, _ := newReplicaServer(t, 4)
	if _, err := s.ApplyReplicated("gzip", []byte("not a trace frame"), 0); err == nil {
		t.Fatal("ApplyReplicated accepted an invalid frame")
	}
	var wg sync.WaitGroup
	for _, p := range programs {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for _, b := range batches {
				if b.program != p {
					continue
				}
				if _, err := s.ApplyReplicated(p, trace.EncodeFrameAppend(nil, synthEvents(b.n, b.seed)), 0); err != nil {
					t.Errorf("ApplyReplicated(%s): %v", p, err)
					return
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	snapped := make(chan error, 1)
	go func() {
		var err error
		for err == nil {
			select {
			case <-stop:
				snapped <- nil
				return
			default:
				_, err = s.SnapshotNow()
			}
		}
		snapped <- err
	}()
	wg.Wait()
	close(stop)
	if err := <-snapped; err != nil {
		t.Fatalf("SnapshotNow during replicated applies: %v", err)
	}
	if got := s.table.SnapshotEntries(); !reflect.DeepEqual(got, control) {
		t.Fatal("concurrently replicated state diverges from sequential ingest")
	}
}
