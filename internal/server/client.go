package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"reactivespec/internal/obs"
	"reactivespec/internal/trace"
)

// Client is a Go client for the reactived HTTP API. Construct it with
// Connect and functional options:
//
//	c := server.Connect("http://127.0.0.1:8344",
//	    server.WithTimeout(10*time.Second))
//
// Every method takes a context.Context governing that call's lifetime. The
// client is safe for concurrent use by multiple goroutines, but batches for
// the same program should be sent by one goroutine at a time (the server
// serializes them anyway; interleaving would make the decision order
// nondeterministic).
type Client struct {
	base string
	hc   *http.Client
	// paramsPin, when non-empty, is appended as the params= query pin on
	// every ingest request and checked against /v1/info by VerifyParams.
	paramsPin string
	// policyPin, when non-empty, is appended as the policy= query pin on
	// every ingest, decide and cursor request.
	policyPin string
	// tracer, when non-nil, samples ingest batches into client-side spans
	// (client_encode, client_network) and propagates the trace ID to the
	// server via the X-Reactive-Trace header.
	tracer *obs.Tracer
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient uses hc for every request instead of the default client
// (60s timeout). Later options may still adjust it (WithTimeout copies).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithTimeout bounds every request with d. It applies on top of
// WithHTTPClient by copying the supplied client rather than mutating it.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) {
		hc := *c.hc
		hc.Timeout = d
		c.hc = &hc
	}
}

// WithParamsHash pins every ingest request to the given controller-parameter
// hash (see ParamsHash): the daemon rejects the batch with a typed
// ErrParamsMismatch error (HTTP 409) instead of computing silently diverging
// decisions.
func WithParamsHash(h uint64) Option {
	return func(c *Client) { c.paramsPin = formatParamsHash(h) }
}

// WithPolicy pins every ingest, decide and cursor request to the named
// decision policy: a daemon serving a different one rejects the request up
// front — with an error satisfying errors.Is(err, ErrUnknownPolicy) when the
// name is not registered there at all, ErrParamsMismatch when it is
// registered but not the policy being served.
func WithPolicy(name string) Option {
	return func(c *Client) { c.policyPin = name }
}

// WithTracer samples this client's ingest batches into t: a sampled batch
// records client_encode and client_network spans and ships its trace ID to
// the server in the X-Reactive-Trace header, so the server's batch spans join
// the client's trace.
func WithTracer(t *obs.Tracer) Option {
	return func(c *Client) { c.tracer = t }
}

// Connect returns a client for the daemon at base, e.g.
// "http://127.0.0.1:8344". It performs no I/O — the name records intent, not
// a dial; the first request finds out whether the daemon is there.
func Connect(base string, opts ...Option) *Client {
	c := &Client{
		base: base,
		hc:   &http.Client{Timeout: 60 * time.Second},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// get performs one GET round trip.
func (c *Client) get(ctx context.Context, op, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("server: %s: %w", op, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("server: %s: %w", op, err)
	}
	return resp, nil
}

// programURL builds the URL of a program endpoint with the shared query
// vocabulary: program, kind (always sent) and the policy pin when the client
// carries one.
func (c *Client) programURL(path, program string, kind trace.Kind) string {
	u := c.base + path + "?program=" + url.QueryEscape(program) + "&kind=" + kind.String()
	if c.policyPin != "" {
		u += "&policy=" + url.QueryEscape(c.policyPin)
	}
	return u
}

// getJSON performs a GET and decodes a JSON body into out.
func (c *Client) getJSON(ctx context.Context, op, url string, out any) error {
	resp, err := c.get(ctx, op, url)
	if err != nil {
		return err
	}
	return decodeJSON(op, resp, out)
}

// postJSON performs a body-less POST to path and decodes a JSON body into
// out.
func (c *Client) postJSON(ctx context.Context, op, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("server: %s: %w", op, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	return decodeJSON(op, resp, out)
}

// decodeJSON decodes a 200 response's JSON body into out, or the error
// envelope of any other status; it closes the body.
func decodeJSON(op string, resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(op, resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// IngestResult is the per-frame outcome of one ingest batch.
type IngestResult struct {
	// Decisions holds one entry per event of an applied frame; nil for a
	// rejected frame.
	Decisions []Decision
	// Err is the server's rejection diagnostic for a rejected frame.
	Err error
}

// BatchTruncatedError reports a batch whose framing the server lost
// mid-body: the first Applied of Sent frames were applied to the table and
// their results are returned alongside this error; the remainder of the
// batch was discarded. The per-program cursor has advanced past the applied
// frames, so a client that re-sends the whole batch would double-apply the
// prefix — resume from frame Applied instead.
type BatchTruncatedError struct {
	// Applied counts the frame results the server returned (applied or
	// individually rejected) before the framing was lost.
	Applied int
	// Sent counts the frames the client put in the request.
	Sent int
	// Msg is the server's framing diagnostic.
	Msg string
}

func (e *BatchTruncatedError) Error() string {
	return fmt.Sprintf("server: batch truncated: applied %d of %d frames: %s", e.Applied, e.Sent, e.Msg)
}

// encodeBufPool recycles request-body buffers across ingest calls so the
// steady-state encode path does not allocate per batch.
var encodeBufPool = sync.Pool{New: func() any { return new([]byte) }}

// IngestTiming partitions one ingest round trip into client-side phases,
// for callers (cmd/reactiveload) that report where batch latency goes.
type IngestTiming struct {
	// Encode is the time spent building the frame bytes.
	Encode time.Duration
	// Network is the HTTP round trip, including reading the full response
	// body (so it covers the server's decode/apply/respond work too).
	Network time.Duration
	// Decode is the time spent parsing decisions out of the response.
	Decode time.Duration
}

// IngestKind sends one batch of events of the given speculation kind as a
// single frame and returns the per-event decisions. A rejected frame
// (corrupt on the wire) surfaces as an error; a daemon that does not
// recognize or serve the kind answers with an error satisfying
// errors.Is(err, ErrUnsupportedKind).
func (c *Client) IngestKind(ctx context.Context, program string, kind trace.Kind, events []trace.Event) ([]Decision, error) {
	results, _, err := c.IngestFramesKindTimed(ctx, program, kind, [][]trace.Event{events})
	if err != nil {
		return nil, err
	}
	if results[0].Err != nil {
		return nil, results[0].Err
	}
	return results[0].Decisions, nil
}

// IngestFramesKindTimed sends several frames of one speculation kind in one
// batch request, with a per-phase latency breakdown. The returned slice has
// one entry per frame, in order; frames the server rejected carry an Err
// instead of decisions. The error return covers transport- and batch-level
// failures, with one partial-success case: a *BatchTruncatedError is
// returned alongside the results for the frames the server did apply before
// its framing was lost ("applied N of M frames").
func (c *Client) IngestFramesKindTimed(ctx context.Context, program string, kind trace.Kind, frames [][]trace.Event) ([]IngestResult, IngestTiming, error) {
	ingestURL := c.programURL("/v1/ingest", program, kind)
	if c.paramsPin != "" {
		ingestURL += "&params=" + c.paramsPin
	}
	var tm IngestTiming
	traceID := c.tracer.SampleBatch()
	nEvents := 0
	encodeStart := time.Now()
	bufp := encodeBufPool.Get().(*[]byte)
	defer func() { encodeBufPool.Put(bufp) }()
	body := (*bufp)[:0]
	for _, events := range frames {
		body = trace.AppendFrame(body, events)
		nEvents += len(events)
	}
	*bufp = body
	tm.Encode = time.Since(encodeStart)
	c.tracer.RecordStage(traceID, 0, "client_encode", program, nEvents, 0, encodeStart, tm.Encode)

	netStart := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ingestURL, bytes.NewReader(body))
	if err != nil {
		return nil, tm, fmt.Errorf("server: ingest: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if traceID != 0 {
		req.Header.Set(TraceHeader, strconv.FormatUint(traceID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, tm, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tm.Network = time.Since(netStart)
		return nil, tm, httpError("ingest", resp)
	}
	raw, err := io.ReadAll(resp.Body)
	tm.Network = time.Since(netStart)
	c.tracer.RecordStage(traceID, 0, "client_network", program, nEvents, 0, netStart, tm.Network)
	if err != nil {
		return nil, tm, fmt.Errorf("server: reading ingest response: %w", err)
	}

	decodeStart := time.Now()
	results, truncMsg, err := parseIngestResponse(raw)
	tm.Decode = time.Since(decodeStart)
	if err != nil {
		return nil, tm, err
	}
	if truncMsg == "" && len(results) != len(frames) {
		return nil, tm, fmt.Errorf("server: %d frame results for %d frames", len(results), len(frames))
	}
	if len(results) > len(frames) {
		return nil, tm, fmt.Errorf("server: %d frame results for %d frames", len(results), len(frames))
	}
	for i, r := range results {
		if r.Err == nil && len(r.Decisions) != len(frames[i]) {
			return nil, tm, fmt.Errorf("server: frame %d: %d decisions for %d events",
				i, len(r.Decisions), len(frames[i]))
		}
	}
	if truncMsg != "" {
		return results, tm, &BatchTruncatedError{Applied: len(results), Sent: len(frames), Msg: truncMsg}
	}
	return results, tm, nil
}

// parseIngestResponse decodes the binary ingest response body. A trailing
// truncation record (status 2) is returned as a non-empty truncated message
// alongside the frame results that preceded it. Every count is bounded by
// the bytes left in raw before it sizes anything, so a corrupt body fails
// with an error instead of forcing a giant allocation.
func parseIngestResponse(raw []byte) (results []IngestResult, truncated string, err error) {
	if len(raw) < len(respMagic) {
		return nil, "", fmt.Errorf("server: reading response magic: %w", io.ErrUnexpectedEOF)
	}
	if magic := [4]byte(raw); magic != respMagic {
		return nil, "", fmt.Errorf("server: bad response magic %q", magic[:])
	}
	raw = raw[len(respMagic):]
	// count reads a uvarint counting items of at least size bytes each,
	// which must all fit in what is left of raw.
	count := func(size int) (uint64, error) {
		v, n := binary.Uvarint(raw)
		if n <= 0 {
			return 0, errors.New("malformed or truncated uvarint")
		}
		raw = raw[n:]
		if v > uint64(len(raw)/size) {
			return 0, fmt.Errorf("%d exceeds the %d bytes left in the response", v, len(raw))
		}
		return v, nil
	}
	take := func(n uint64) []byte {
		b := raw[:n]
		raw = raw[n:]
		return b
	}
	// Each frame result is at least a status byte and a length byte.
	frames, err := count(2)
	if err != nil {
		return nil, "", fmt.Errorf("server: reading frame count: %w", err)
	}
	results = make([]IngestResult, 0, frames)
	for i := uint64(0); i < frames; i++ {
		if len(raw) == 0 {
			return nil, "", fmt.Errorf("server: reading frame %d status: %w", i, io.ErrUnexpectedEOF)
		}
		status := raw[0]
		raw = raw[1:]
		n, err := count(1)
		if err != nil {
			return nil, "", fmt.Errorf("server: reading frame %d length: %w", i, err)
		}
		switch status {
		case ingestApplied:
			decisions := make([]Decision, n)
			for j, b := range take(n) {
				if decisions[j], err = DecodeDecision(b); err != nil {
					return nil, "", fmt.Errorf("server: frame %d event %d: %w", i, j, err)
				}
			}
			results = append(results, IngestResult{Decisions: decisions})
		case ingestRejected:
			results = append(results, IngestResult{Err: fmt.Errorf("server: frame rejected: %s", take(n))})
		default:
			return nil, "", fmt.Errorf("server: unknown frame status %d", status)
		}
	}
	// A truncation record may follow the per-frame results.
	if len(raw) == 0 {
		return results, "", nil
	}
	if status := raw[0]; status != ingestTruncated {
		return nil, "", fmt.Errorf("server: unexpected trailing status %d", status)
	}
	raw = raw[1:]
	n, err := count(1)
	if err != nil {
		return nil, "", fmt.Errorf("server: reading truncation length: %w", err)
	}
	return results, string(take(n)), nil
}

// DecideKind queries a unit's current classification for a speculation
// kind.
func (c *Client) DecideKind(ctx context.Context, program string, kind trace.Kind, id trace.BranchID) (DecideResponse, error) {
	var out DecideResponse
	u := c.programURL("/v1/decide", program, kind) + "&id=" + strconv.FormatUint(uint64(id), 10)
	return out, c.getJSON(ctx, "decide", u, &out)
}

// Healthz fetches the daemon's health summary.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	var out Health
	return out, c.getJSON(ctx, "healthz", c.base+"/healthz", &out)
}

// Info fetches the daemon's API/protocol identity (GET /v1/info).
func (c *Client) Info(ctx context.Context) (Info, error) {
	var out Info
	return out, c.getJSON(ctx, "info", c.base+"/v1/info", &out)
}

// VerifyParams checks the daemon's controller-parameter hash against params
// and fails with a typed ErrParamsMismatch error on skew, so callers that
// mirror decisions locally (reactiveload -verify) reject a misconfigured
// pairing up front instead of diverging mid-run.
func (c *Client) VerifyParams(ctx context.Context, params uint64) (Info, error) {
	info, err := c.Info(ctx)
	if err != nil {
		return info, err
	}
	if info.ParamsHash != formatParamsHash(params) {
		return info, fmt.Errorf("%w: client hash %s, daemon hash %s (differing -param-scale?)",
			ErrParamsMismatch, formatParamsHash(params), info.ParamsHash)
	}
	return info, nil
}

// Snapshot asks the daemon to persist a snapshot now.
func (c *Client) Snapshot(ctx context.Context) (SnapshotResult, error) {
	var out SnapshotResult
	return out, c.postJSON(ctx, "snapshot", "/v1/snapshot", &out)
}

// Promote asks a replica daemon to seal replication and go writable
// (POST /v1/promote). A daemon that is not a replica — including one already
// promoted — answers with an error satisfying errors.Is(err, ErrNotReplica).
func (c *Client) Promote(ctx context.Context) (PromoteResult, error) {
	var out PromoteResult
	return out, c.postJSON(ctx, "promote", "/v1/promote", &out)
}

// Cursor fetches one (program, kind) stream's ingest position
// (GET /v1/cursor) — after a failover, Events tells the client how many of
// its events the promoted daemon holds, so it can resume sending from
// exactly there.
func (c *Client) Cursor(ctx context.Context, program string, kind trace.Kind) (CursorResponse, error) {
	var out CursorResponse
	return out, c.getJSON(ctx, "cursor", c.programURL("/v1/cursor", program, kind), &out)
}

// Metrics fetches the raw /metrics Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.get(ctx, "metrics", c.base+"/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", httpError("metrics", resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// httpError decodes a non-200 response into an *APIError. Responses carrying
// the unified JSON envelope keep their machine-readable code (and map onto
// the ErrDraining / ErrParamsMismatch sentinels via APIError.Is); anything
// else is preserved as an "unknown"-code error with the raw body.
func httpError(op string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Code != "" {
		return &APIError{Op: op, Status: resp.StatusCode, Code: env.Code, Message: env.Error}
	}
	return &APIError{Op: op, Status: resp.StatusCode, Code: "unknown",
		Message: string(bytes.TrimSpace(body))}
}
