package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
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
//	    server.WithTimeout(10*time.Second),
//	    server.WithRetry(3, 100*time.Millisecond))
//
// Every method takes a context.Context governing that call's lifetime. The
// client is safe for concurrent use by multiple goroutines, but batches for
// the same program should be sent by one goroutine at a time (the server
// serializes them anyway; interleaving would make the decision order
// nondeterministic).
type Client struct {
	base    string
	hc      *http.Client
	retries int           // extra attempts after the first, transport errors only
	backoff time.Duration // sleep between attempts, doubled each retry
	// paramsPin, when non-empty, is appended as the params= query pin on
	// every ingest request and checked against /v1/info by VerifyParams.
	paramsPin string
	// policyPin, when non-empty, is appended as the policy= query pin on
	// every /v2 request (the /v1 compatibility endpoints have no policy
	// parameter; the params pin's ParamsPolicyHash digest covers them).
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

// WithRetry retries idempotent requests (decide, healthz, metrics, info) up
// to n extra times on transport errors, sleeping backoff before the first
// retry and doubling it each attempt. Ingest and snapshot are never retried:
// the events (or the snapshot) may have landed even when the response was
// lost, and replaying them would double-apply.
func WithRetry(n int, backoff time.Duration) Option {
	return func(c *Client) {
		if n < 0 {
			n = 0
		}
		c.retries = n
		c.backoff = backoff
	}
}

// WithParamsHash pins every ingest request to the given controller-parameter
// hash (see ParamsHash): the daemon rejects the batch with a typed
// ErrParamsMismatch error (HTTP 409) instead of computing silently diverging
// decisions.
func WithParamsHash(h uint64) Option {
	return func(c *Client) { c.paramsPin = formatParamsHash(h) }
}

// WithPolicy pins every /v2 request to the named decision policy: a daemon
// serving a different one rejects the request up front — with an error
// satisfying errors.Is(err, ErrUnknownPolicy) when the name is not
// registered there at all, ErrParamsMismatch when it is registered but not
// the policy being served. The /v1 kind=branch compatibility endpoints carry
// no policy parameter; pin them through WithParamsHash with a
// ParamsPolicyHash digest, which covers the policy.
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

// get performs one GET round trip with the retry policy (GETs here are all
// idempotent reads).
func (c *Client) get(ctx context.Context, op, url string) (*http.Response, error) {
	var lastErr error
	backoff := c.backoff
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, fmt.Errorf("server: %s: %w", op, err)
		}
		resp, err := c.hc.Do(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if attempt == c.retries || ctx.Err() != nil {
			return nil, fmt.Errorf("server: %s: %w", op, lastErr)
		}
		if backoff > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, fmt.Errorf("server: %s: %w", op, ctx.Err())
			}
			backoff *= 2
		}
	}
}

// getJSON performs a GET and decodes a JSON body into out.
func (c *Client) getJSON(ctx context.Context, op, url string, out any) error {
	resp, err := c.get(ctx, op, url)
	if err != nil {
		return err
	}
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

// encodeBufPool recycles request-body buffers across Ingest calls so the
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

// Ingest sends one batch of events as a single frame and returns the
// per-event decisions. A rejected frame (corrupt on the wire) surfaces as an
// error.
//
// Ingest is the kind=branch compatibility surface: it always posts to
// /v1/ingest, so it works against every daemon generation. Kind-aware
// callers use IngestKind.
func (c *Client) Ingest(ctx context.Context, program string, events []trace.Event) ([]Decision, error) {
	ds, _, err := c.IngestTimed(ctx, program, events)
	return ds, err
}

// IngestKind is Ingest for an explicit speculation kind. kind=branch posts to
// /v1/ingest — byte-identical to Ingest, so it works against pre-kind
// daemons; other kinds post to /v2/ingest, where a daemon that does not
// recognize or serve the kind answers with an error satisfying
// errors.Is(err, ErrUnsupportedKind).
func (c *Client) IngestKind(ctx context.Context, program string, kind trace.Kind, events []trace.Event) ([]Decision, error) {
	results, _, err := c.ingestFramesTimed(ctx, c.ingestURLKind(program, kind), program, [][]trace.Event{events})
	if err != nil {
		return nil, err
	}
	if len(results) != 1 {
		return nil, fmt.Errorf("server: %d frame results for 1 frame", len(results))
	}
	if results[0].Err != nil {
		return nil, results[0].Err
	}
	return results[0].Decisions, nil
}

// IngestTimed is Ingest with a per-phase latency breakdown.
func (c *Client) IngestTimed(ctx context.Context, program string, events []trace.Event) ([]Decision, IngestTiming, error) {
	results, tm, err := c.IngestFramesTimed(ctx, program, [][]trace.Event{events})
	if err != nil {
		return nil, tm, err
	}
	if len(results) != 1 {
		return nil, tm, fmt.Errorf("server: %d frame results for 1 frame", len(results))
	}
	if results[0].Err != nil {
		return nil, tm, results[0].Err
	}
	return results[0].Decisions, tm, nil
}

// IngestFrames sends several frames in one batch request. The returned slice
// has one entry per frame, in order; frames the server rejected carry an Err
// instead of decisions. The error return covers transport- and batch-level
// failures, with one partial-success case: a *BatchTruncatedError is
// returned alongside the results for the frames the server did apply before
// its framing was lost ("applied N of M frames").
func (c *Client) IngestFrames(ctx context.Context, program string, frames [][]trace.Event) ([]IngestResult, error) {
	results, _, err := c.IngestFramesTimed(ctx, program, frames)
	return results, err
}

// ingestURL builds the ingest endpoint URL for program, including the
// params pin when the client carries one.
func (c *Client) ingestURL(program string) string {
	u := c.base + "/v1/ingest?program=" + url.QueryEscape(program)
	if c.paramsPin != "" {
		u += "&params=" + c.paramsPin
	}
	return u
}

// ingestURLKind is ingestURL routed by kind: branch stays on the /v1
// compatibility endpoint, every other kind goes to /v2/ingest with its kind
// tag.
func (c *Client) ingestURLKind(program string, kind trace.Kind) string {
	if kind == trace.KindBranch {
		return c.ingestURL(program)
	}
	u := c.base + "/v2/ingest?program=" + url.QueryEscape(program) + "&kind=" + kind.String()
	if c.paramsPin != "" {
		u += "&params=" + c.paramsPin
	}
	if c.policyPin != "" {
		u += "&policy=" + url.QueryEscape(c.policyPin)
	}
	return u
}

// IngestFramesTimed is IngestFrames with a per-phase latency breakdown.
func (c *Client) IngestFramesTimed(ctx context.Context, program string, frames [][]trace.Event) ([]IngestResult, IngestTiming, error) {
	return c.ingestFramesTimed(ctx, c.ingestURL(program), program, frames)
}

// IngestKindTimed is IngestKind with a per-phase latency breakdown.
func (c *Client) IngestKindTimed(ctx context.Context, program string, kind trace.Kind, events []trace.Event) ([]Decision, IngestTiming, error) {
	results, tm, err := c.ingestFramesTimed(ctx, c.ingestURLKind(program, kind), program, [][]trace.Event{events})
	if err != nil {
		return nil, tm, err
	}
	if len(results) != 1 {
		return nil, tm, fmt.Errorf("server: %d frame results for 1 frame", len(results))
	}
	if results[0].Err != nil {
		return nil, tm, results[0].Err
	}
	return results[0].Decisions, tm, nil
}

// IngestFramesKindTimed is IngestFramesTimed routed by kind: branch posts to
// /v1/ingest (byte-identical to IngestFramesTimed, so it works against
// pre-kind daemons), every other kind to /v2/ingest.
func (c *Client) IngestFramesKindTimed(ctx context.Context, program string, kind trace.Kind, frames [][]trace.Event) ([]IngestResult, IngestTiming, error) {
	return c.ingestFramesTimed(ctx, c.ingestURLKind(program, kind), program, frames)
}

// ingestFramesTimed posts frames to an already-built ingest URL (v1 or v2 —
// the body and response bytes are identical on both).
func (c *Client) ingestFramesTimed(ctx context.Context, ingestURL, program string, frames [][]trace.Event) ([]IngestResult, IngestTiming, error) {
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
	results, truncMsg, err := parseIngestResponse(bytes.NewReader(raw))
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
// alongside the frame results that preceded it.
func parseIngestResponse(body io.Reader) (results []IngestResult, truncated string, err error) {
	br := bufio.NewReader(body)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, "", fmt.Errorf("server: reading response magic: %w", err)
	}
	if magic != respMagic {
		return nil, "", fmt.Errorf("server: bad response magic %q", magic[:])
	}
	frames, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, "", fmt.Errorf("server: reading frame count: %w", err)
	}
	results = make([]IngestResult, 0, frames)
	for i := uint64(0); i < frames; i++ {
		status, err := br.ReadByte()
		if err != nil {
			return nil, "", fmt.Errorf("server: reading frame %d status: %w", i, err)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, "", fmt.Errorf("server: reading frame %d length: %w", i, err)
		}
		switch status {
		case ingestApplied:
			decisions := make([]Decision, n)
			buf := make([]byte, n)
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, "", fmt.Errorf("server: reading frame %d decisions: %w", i, err)
			}
			for j, b := range buf {
				if decisions[j], err = DecodeDecision(b); err != nil {
					return nil, "", fmt.Errorf("server: frame %d event %d: %w", i, j, err)
				}
			}
			results = append(results, IngestResult{Decisions: decisions})
		case ingestRejected:
			msg := make([]byte, n)
			if _, err := io.ReadFull(br, msg); err != nil {
				return nil, "", fmt.Errorf("server: reading frame %d error: %w", i, err)
			}
			results = append(results, IngestResult{Err: fmt.Errorf("server: frame rejected: %s", msg)})
		default:
			return nil, "", fmt.Errorf("server: unknown frame status %d", status)
		}
	}
	// A truncation record may follow the per-frame results.
	status, err := br.ReadByte()
	if err == io.EOF {
		return results, "", nil
	}
	if err != nil {
		return nil, "", fmt.Errorf("server: reading truncation record: %w", err)
	}
	if status != ingestTruncated {
		return nil, "", fmt.Errorf("server: unexpected trailing status %d", status)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, "", fmt.Errorf("server: reading truncation length: %w", err)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(br, msg); err != nil {
		return nil, "", fmt.Errorf("server: reading truncation message: %w", err)
	}
	return results, string(msg), nil
}

// Decide queries a branch's current classification.
//
// Decide is the kind=branch compatibility surface (it always queries
// /v1/decide); kind-aware callers use DecideKind.
func (c *Client) Decide(ctx context.Context, program string, id trace.BranchID) (DecideResponse, error) {
	var out DecideResponse
	u := c.base + "/v1/decide?program=" + url.QueryEscape(program) +
		"&branch=" + strconv.FormatUint(uint64(id), 10)
	return out, c.getJSON(ctx, "decide", u, &out)
}

// DecideKind queries a unit's current classification for an explicit
// speculation kind. kind=branch queries the /v1 compatibility endpoint (so
// it works against pre-kind daemons) and adapts the answer; other kinds
// query /v2/decide.
func (c *Client) DecideKind(ctx context.Context, program string, kind trace.Kind, id trace.BranchID) (DecideV2Response, error) {
	if kind == trace.KindBranch {
		v1, err := c.Decide(ctx, program, id)
		if err != nil {
			return DecideV2Response{}, err
		}
		return DecideV2Response{
			Program: v1.Program,
			Kind:    trace.KindBranch.String(),
			ID:      v1.Branch,
			State:   v1.State,
			Dir:     v1.Direction == "taken",
			Live:    v1.Live,
		}, nil
	}
	var out DecideV2Response
	u := c.base + "/v2/decide?program=" + url.QueryEscape(program) +
		"&kind=" + kind.String() + "&id=" + strconv.FormatUint(uint64(id), 10)
	if c.policyPin != "" {
		u += "&policy=" + url.QueryEscape(c.policyPin)
	}
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
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/snapshot", nil)
	if err != nil {
		return out, fmt.Errorf("server: snapshot: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, httpError("snapshot", resp)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// Promote asks a replica daemon to seal replication and go writable
// (POST /v1/promote). A daemon that is not a replica — including one already
// promoted — answers with an error satisfying errors.Is(err, ErrNotReplica).
func (c *Client) Promote(ctx context.Context) (PromoteResult, error) {
	var out PromoteResult
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/promote", nil)
	if err != nil {
		return out, fmt.Errorf("server: promote: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, httpError("promote", resp)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// Cursor fetches one program's ingest position (GET /v1/cursor) — after a
// failover, Events tells the client how many of its events the promoted
// daemon holds, so it can resume sending from exactly there.
func (c *Client) Cursor(ctx context.Context, program string) (CursorResponse, error) {
	var out CursorResponse
	u := c.base + "/v1/cursor?program=" + url.QueryEscape(program)
	return out, c.getJSON(ctx, "cursor", u, &out)
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
