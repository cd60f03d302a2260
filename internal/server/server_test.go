package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Params == (core.Params{}) {
		cfg.Params = testParams()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, Connect(ts.URL, WithHTTPClient(ts.Client()))
}

func TestIngestAndDecide(t *testing.T) {
	s, c := newTestServer(t, Config{Shards: 4})
	evs := synthEvents(30_000, 3)

	// Ingest in several batches; decisions must match a direct table run.
	want := func() []byte {
		tab := NewTable(s.cfg.Params, 1)
		var instr uint64
		return applyAll(tab, "gzip", evs, &instr)
	}()
	var got []byte
	for off := 0; off < len(evs); off += 7000 {
		end := off + 7000
		if end > len(evs) {
			end = len(evs)
		}
		ds, err := c.Ingest(context.Background(), "gzip", evs[off:end])
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			got = append(got, d.Encode())
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("networked decisions differ from direct table decisions")
	}

	// Decide must agree with the table's view.
	dr, err := c.Decide(context.Background(), "gzip", 0)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Table().Decide("gzip", 0)
	if (dr.State != d.State.String()) || dr.Live != d.Live {
		t.Fatalf("decide %+v, table %v", dr, d)
	}

	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Events != uint64(len(evs)) || h.Programs != 1 {
		t.Fatalf("health %+v", h)
	}

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"reactived_events_total{shard=\"0\"}",
		"reactived_misspec_rate",
		"reactived_transitions_total",
		"reactived_batch_latency_seconds{quantile=\"0.99\"}",
		"reactived_batches_total 5",
		"reactived_table_events_total 30000",
		"reactived_ingest_decode_seconds{quantile=\"0.99\"}",
		"reactived_ingest_apply_seconds_count 5",
		"reactived_ingest_respond_seconds_count 5",
		"reactived_ingest_batch_events{quantile=\"0.5\"}",
		"reactived_uptime_seconds",
		"reactived_draining 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every sample line belongs to a family that declared # HELP/# TYPE
	// metadata under the uniform reactived_ prefix (the registry's
	// exposition writer guarantees this; pin it end to end).
	typed := map[string]bool{}
	for _, line := range strings.Split(m, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
		}
	}
	for _, line := range strings.Split(m, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !strings.HasPrefix(name, "reactived_") {
			t.Errorf("metric %q lacks the reactived_ prefix", name)
		}
		family := strings.TrimSuffix(strings.TrimSuffix(name, "_count"), "_sum")
		if !typed[name] && !typed[family] {
			t.Errorf("sample %q has no # TYPE metadata", name)
		}
	}
}

// TestIngestRejectsBadFramePerBatch sends [good, corrupt, good] frames in one
// request: the corrupt frame must be rejected alone, with both good frames
// applied.
func TestIngestRejectsBadFramePerBatch(t *testing.T) {
	s, c := newTestServer(t, Config{Shards: 4})

	good1 := synthEvents(500, 11)
	good2 := synthEvents(500, 13)
	corrupt := trace.EncodeFrameAppend(nil, synthEvents(400, 12))
	corrupt[len(corrupt)/2] ^= 0xff

	var body bytes.Buffer
	if err := trace.WriteFrame(&body, good1); err != nil {
		t.Fatal(err)
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(corrupt)))
	body.Write(hdr[:n])
	body.Write(corrupt)
	if err := trace.WriteFrame(&body, good2); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/ingest?program=p", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s, want 200 (per-batch rejection, not per-connection)", resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	results, truncated, err := parseIngestResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != "" {
		t.Fatalf("unexpected truncation record: %q", truncated)
	}
	if len(results) != 3 {
		t.Fatalf("%d frame results, want 3", len(results))
	}
	if results[0].Err != nil || len(results[0].Decisions) != len(good1) {
		t.Fatalf("frame 0: %+v", results[0])
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "rejected") {
		t.Fatalf("frame 1 not rejected: %+v", results[1])
	}
	if results[2].Err != nil || len(results[2].Decisions) != len(good2) {
		t.Fatalf("frame 2: %+v", results[2])
	}

	// Only the good frames' events must have been applied.
	var total ShardMetrics
	for _, m := range s.Table().Metrics() {
		total.Add(m)
	}
	if want := uint64(len(good1) + len(good2)); total.Events != want {
		t.Fatalf("applied %d events, want %d", total.Events, want)
	}

	// The service stays up for the next batch (per-batch, not per-connection).
	if _, err := c.Ingest(context.Background(), "p", good1); err != nil {
		t.Fatalf("follow-up batch failed: %v", err)
	}
}

// TestIngestBadQueryAndMethod checks request validation.
func TestIngestBadQueryAndMethod(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing program: status %s, want 400", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/v1/ingest?program=p")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest: status %s, want 405", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/v1/decide?program=p&branch=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad branch: status %s, want 400", resp.Status)
	}
}

// TestDrainRejectsNewIngest checks the graceful-shutdown gate.
func TestDrainRejectsNewIngest(t *testing.T) {
	s, c := newTestServer(t, Config{})
	if _, err := c.Ingest(context.Background(), "p", synthEvents(100, 1)); err != nil {
		t.Fatal(err)
	}
	s.BeginDrain()
	if _, err := c.Ingest(context.Background(), "p", synthEvents(100, 2)); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Fatalf("ingest while draining: err = %v, want 503", err)
	}
	// Read-only endpoints keep serving.
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Draining {
		t.Fatal("health must report draining")
	}
	if _, err := c.Decide(context.Background(), "p", 0); err != nil {
		t.Fatalf("decide while draining: %v", err)
	}
}

// TestConcurrentIngestDistinctPrograms checks the serving path under the
// race detector with parallel clients.
func TestConcurrentIngestDistinctPrograms(t *testing.T) {
	s, c := newTestServer(t, Config{Shards: 8})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			evs := synthEvents(5_000, uint64(w)*31)
			program := "prog-" + string(rune('a'+w))
			for off := 0; off < len(evs); off += 1000 {
				if _, err := c.Ingest(context.Background(), program, evs[off:off+1000]); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var total ShardMetrics
	for _, m := range s.Table().Metrics() {
		total.Add(m)
	}
	if want := uint64(workers * 5_000); total.Events != want {
		t.Fatalf("total events %d, want %d", total.Events, want)
	}
}

// TestParseIngestResponseBoundsCounts feeds the client's response parser
// bodies whose counts claim far more than the body holds — a frame count of
// 2^63-1, and per-frame decision, rejection-text and truncation-text lengths
// just as large. Each must fail with an error instead of sizing an
// allocation from the claim.
func TestParseIngestResponseBoundsCounts(t *testing.T) {
	const huge = 1<<63 - 1
	body := func(parts ...[]byte) []byte {
		raw := []byte("RSPD")
		for _, p := range parts {
			raw = append(raw, p...)
		}
		return raw
	}
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	for name, raw := range map[string][]byte{
		"frame count":     body(uv(huge)),
		"decision count":  body(uv(1), []byte{ingestApplied}, uv(huge), []byte{0, 0}),
		"rejection text":  body(uv(1), []byte{ingestRejected}, uv(huge), []byte("oops")),
		"truncation text": body(uv(0), []byte{ingestTruncated}, uv(huge), []byte("cut")),
	} {
		if _, _, err := parseIngestResponse(raw); err == nil {
			t.Errorf("%s 2^63-1: parsed without error", name)
		} else if !strings.Contains(err.Error(), "bytes left") {
			t.Errorf("%s 2^63-1: error %q does not name the bound", name, err)
		}
	}
}

// TestIngestScratchPoolDropsOversizedBatches pins the ingest scratch cap:
// after a POST batch and a replicated record larger than maxPooledEvents,
// the pool never hands back a scratch holding buffers above the caps, so one
// huge request cannot pin its payload, events or response for the life of
// the process. (Race builds drop pool puts at random, which can only leave
// the pool emptier.)
func TestIngestScratchPoolDropsOversizedBatches(t *testing.T) {
	evs := synthEvents(maxPooledEvents+1, 5)
	_, c := newTestServer(t, Config{Shards: 4})
	if _, err := c.Ingest(context.Background(), "p", evs); err != nil {
		t.Fatal(err)
	}
	r, _ := newReplicaServer(t, 4)
	if _, err := r.ApplyReplicated("p", trace.EncodeFrameAppend(nil, evs), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		sc := ingestScratchPool.Get().(*ingestScratch)
		if cap(sc.events) > maxPooledEvents || cap(sc.frames) > maxPooledEvents ||
			cap(sc.decisions) > maxPooledEvents || cap(sc.payload) > maxPooledBytes ||
			cap(sc.resp) > maxPooledBytes {
			t.Fatalf("ingest scratch pool returned an oversized scratch: %d events, %d frames, "+
				"%d decisions, %d payload bytes, %d response bytes",
				cap(sc.events), cap(sc.frames), cap(sc.decisions), cap(sc.payload), cap(sc.resp))
		}
	}
}
