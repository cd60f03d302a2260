package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"reactivespec/internal/trace"
)

// TestIngestTruncatedBatchPartialApply damages the framing mid-body: the
// frames decoded before the damage must be applied and answered (status 200
// with a trailing truncation record), not discarded behind a bare 400.
func TestIngestTruncatedBatchPartialApply(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 4})
	good := synthEvents(800, 21)

	var body bytes.Buffer
	if err := trace.WriteFrame(&body, good); err != nil {
		t.Fatal(err)
	}
	// Second frame: length prefix promising more bytes than the body holds.
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], 1<<20)
	body.Write(hdr[:n])
	body.WriteString("short")

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/ingest?program=p", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s, want 200 (partial-apply, not wholesale rejection)", resp.Status)
	}
	if resp.ContentLength < 0 {
		t.Fatal("Content-Length not set on ingest response")
	}

	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	results, truncated, err := parseIngestResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if truncated == "" {
		t.Fatal("no truncation record in response")
	}
	if !strings.Contains(truncated, "truncated") {
		t.Fatalf("truncation message %q does not name the failure", truncated)
	}
	if len(results) != 1 || results[0].Err != nil || len(results[0].Decisions) != len(good) {
		t.Fatalf("expected 1 applied frame of %d decisions, got %+v", len(good), results)
	}

	// Exactly the first frame's events were applied.
	var total ShardMetrics
	for _, m := range s.Table().Metrics() {
		total.Add(m)
	}
	if total.Events != uint64(len(good)) {
		t.Fatalf("applied %d events, want %d", total.Events, len(good))
	}

	// The truncation is counted.
	m, err := Connect(ts.URL, WithHTTPClient(ts.Client())).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "reactived_batches_truncated_total 1") {
		t.Error("reactived_batches_truncated_total not incremented")
	}
	if !strings.Contains(m, "reactived_ingest_response_errors_total 0") {
		t.Error("reactived_ingest_response_errors_total missing from exposition")
	}
}

// TestClientSurfacesBatchTruncation pins the client-side contract: a
// truncated batch yields the applied prefix's results plus a
// *BatchTruncatedError saying "applied N of M frames".
func TestClientSurfacesBatchTruncation(t *testing.T) {
	// A canned daemon that decodes only the first frame, then claims the
	// framing was lost.
	canned := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fr := trace.NewFrameReader(r.Body)
		_, events, err := fr.NextPayloadAppend(nil, nil)
		if err != nil {
			t.Errorf("canned daemon: %v", err)
		}
		var resp []byte
		resp = append(resp, respMagic[:]...)
		var tmp [binary.MaxVarintLen64]byte
		put := func(v uint64) { resp = append(resp, tmp[:binary.PutUvarint(tmp[:], v)]...) }
		put(1)
		resp = append(resp, ingestApplied)
		put(uint64(len(events)))
		for range events {
			resp = append(resp, Decision{}.Encode())
		}
		const msg = "trace: malformed frame: frame 1 truncated"
		resp = append(resp, ingestTruncated)
		put(uint64(len(msg)))
		resp = append(resp, msg...)
		w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
		w.Write(resp)
	}))
	defer canned.Close()

	c := Connect(canned.URL, WithHTTPClient(canned.Client()))
	frames := [][]trace.Event{synthEvents(10, 1), synthEvents(20, 2), synthEvents(30, 3)}
	results, _, err := c.IngestFramesKindTimed(context.Background(), "p", trace.KindBranch, frames)
	var te *BatchTruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *BatchTruncatedError", err)
	}
	if te.Applied != 1 || te.Sent != 3 {
		t.Fatalf("Applied/Sent = %d/%d, want 1/3", te.Applied, te.Sent)
	}
	if !strings.Contains(err.Error(), "applied 1 of 3 frames") {
		t.Fatalf("error %q does not surface the applied/sent counts", err)
	}
	if len(results) != 1 || len(results[0].Decisions) != len(frames[0]) {
		t.Fatalf("expected the applied frame's results alongside the error, got %+v", results)
	}
}

// TestIngestResponseContentLength checks the exact header value on a normal
// batch.
func TestIngestResponseContentLength(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 2})
	evs := synthEvents(100, 9)
	var body bytes.Buffer
	if err := trace.WriteFrame(&body, evs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/ingest?program=p", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(buf.Len()) {
		t.Fatalf("Content-Length %d, body %d bytes", resp.ContentLength, buf.Len())
	}
}
