package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// TestErrorEnvelopeConformance walks every endpoint's failure paths — the
// shared program/kind/policy query on ingest, decide and cursor included — and
// checks the one contract they all share: a JSON {"error", "code"} envelope
// with the documented status code, served as application/json.
func TestErrorEnvelopeConformance(t *testing.T) {
	live := New(Config{Params: testParams(), Shards: 2})
	liveTS := httptest.NewServer(live.Handler())
	defer liveTS.Close()

	draining := New(Config{Params: testParams(), Shards: 2})
	draining.BeginDrain()
	drainTS := httptest.NewServer(draining.Handler())
	defer drainTS.Close()

	// branchOnly serves a restricted kind set, for the unserved-kind paths.
	branchOnly := New(Config{Params: testParams(), Shards: 2, Kinds: []trace.Kind{trace.KindBranch}})
	branchTS := httptest.NewServer(branchOnly.Handler())
	defer branchTS.Close()

	wrongPin := formatParamsHash(live.paramsHash ^ 1)
	cases := []struct {
		name       string
		base       string
		method     string
		path       string
		wantStatus int
		wantCode   string
	}{
		{"ingest wrong method", liveTS.URL, http.MethodGet, "/v1/ingest?program=p", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"ingest missing program", liveTS.URL, http.MethodPost, "/v1/ingest", http.StatusBadRequest, CodeMalformed},
		{"ingest NUL program", liveTS.URL, http.MethodPost, "/v1/ingest?program=p%00q", http.StatusBadRequest, CodeMalformed},
		{"ingest bad params pin", liveTS.URL, http.MethodPost, "/v1/ingest?program=p&params=zzz", http.StatusBadRequest, CodeMalformed},
		{"ingest params mismatch", liveTS.URL, http.MethodPost, "/v1/ingest?program=p&params=" + wrongPin, http.StatusConflict, CodeParamMismatch},
		{"ingest draining", drainTS.URL, http.MethodPost, "/v1/ingest?program=p", http.StatusServiceUnavailable, CodeDraining},
		{"ingest unknown kind", liveTS.URL, http.MethodPost, "/v1/ingest?program=p&kind=quantum", http.StatusBadRequest, CodeUnsupportedKind},
		{"ingest unserved kind", branchTS.URL, http.MethodPost, "/v1/ingest?program=p&kind=value", http.StatusBadRequest, CodeUnsupportedKind},
		{"ingest unknown policy", liveTS.URL, http.MethodPost, "/v1/ingest?program=p&policy=zzz", http.StatusBadRequest, CodeUnknownPolicy},
		{"ingest policy mismatch", liveTS.URL, http.MethodPost, "/v1/ingest?program=p&kind=value&policy=selftrain", http.StatusConflict, CodeParamMismatch},
		{"decide wrong method", liveTS.URL, http.MethodPost, "/v1/decide?program=p&id=0", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"decide kind wrong method", liveTS.URL, http.MethodPost, "/v1/decide?program=p&kind=value&id=0", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"decide missing program", liveTS.URL, http.MethodGet, "/v1/decide?id=0", http.StatusBadRequest, CodeMalformed},
		{"decide bad branch", liveTS.URL, http.MethodGet, "/v1/decide?program=p&id=x", http.StatusBadRequest, CodeMalformed},
		{"decide bad id", liveTS.URL, http.MethodGet, "/v1/decide?program=p&kind=value&id=x", http.StatusBadRequest, CodeMalformed},
		{"decide unknown kind", liveTS.URL, http.MethodGet, "/v1/decide?program=p&kind=quantum&id=0", http.StatusBadRequest, CodeUnsupportedKind},
		{"decide unserved kind", branchTS.URL, http.MethodGet, "/v1/decide?program=p&kind=memdep&id=0", http.StatusBadRequest, CodeUnsupportedKind},
		{"decide policy mismatch", liveTS.URL, http.MethodGet, "/v1/decide?program=p&policy=selftrain&id=0", http.StatusConflict, CodeParamMismatch},
		{"info wrong method", liveTS.URL, http.MethodPost, "/v1/info", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"snapshot wrong method", liveTS.URL, http.MethodGet, "/v1/snapshot", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"snapshot draining", drainTS.URL, http.MethodPost, "/v1/snapshot", http.StatusServiceUnavailable, CodeDraining},
		{"snapshot unconfigured", liveTS.URL, http.MethodPost, "/v1/snapshot", http.StatusInternalServerError, CodeInternal},
		{"cursor wrong method", liveTS.URL, http.MethodPost, "/v1/cursor?program=p", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"cursor missing program", liveTS.URL, http.MethodGet, "/v1/cursor", http.StatusBadRequest, CodeMalformed},
		{"cursor NUL program", liveTS.URL, http.MethodGet, "/v1/cursor?program=p%00q", http.StatusBadRequest, CodeMalformed},
		{"cursor unknown kind", liveTS.URL, http.MethodGet, "/v1/cursor?program=p&kind=quantum", http.StatusBadRequest, CodeUnsupportedKind},
		{"cursor unserved kind", branchTS.URL, http.MethodGet, "/v1/cursor?program=p&kind=tlspec", http.StatusBadRequest, CodeUnsupportedKind},
		{"cursor unknown policy", liveTS.URL, http.MethodGet, "/v1/cursor?program=p&policy=zzz", http.StatusBadRequest, CodeUnknownPolicy},
		{"promote wrong method", liveTS.URL, http.MethodGet, "/v1/promote", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"promote not a replica", liveTS.URL, http.MethodPost, "/v1/promote", http.StatusConflict, CodeNotReplica},

		// /v2/ingest is an alias of /v1/ingest: the same handler, so the
		// same failure paths.
		{"v2 ingest wrong method", liveTS.URL, http.MethodGet, "/v2/ingest?program=p&kind=value", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"v2 ingest draining", drainTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=value", http.StatusServiceUnavailable, CodeDraining},
		{"v2 ingest unknown kind", liveTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=quantum", http.StatusBadRequest, CodeUnsupportedKind},
		{"v2 ingest unserved kind", branchTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=value", http.StatusBadRequest, CodeUnsupportedKind},
		{"v2 ingest NUL program", liveTS.URL, http.MethodPost, "/v2/ingest?program=p%00q&kind=value", http.StatusBadRequest, CodeMalformed},
		{"v2 ingest unknown policy", liveTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=value&policy=zzz", http.StatusBadRequest, CodeUnknownPolicy},
		{"v2 ingest policy mismatch", liveTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=value&policy=selftrain", http.StatusConflict, CodeParamMismatch},
		{"v2 ingest params mismatch", liveTS.URL, http.MethodPost, "/v2/ingest?program=p&kind=value&params=" + wrongPin, http.StatusConflict, CodeParamMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, tc.base+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("body is not an error envelope: %v\n%s", err, body)
			}
			if env.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q", env.Code, tc.wantCode)
			}
			if env.Error == "" {
				t.Fatal("envelope carries no diagnostic")
			}
		})
	}
}

// TestClientErrorMapping pins the client-side contract: envelopes decode to
// *APIError and map onto the sentinels through errors.Is.
func TestClientErrorMapping(t *testing.T) {
	s, c := newTestServer(t, Config{Shards: 2})
	s.BeginDrain()
	_, err := c.IngestKind(context.Background(), "p", trace.KindBranch, synthEvents(10, 1))
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("ingest while draining = %v, want ErrDraining", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("ingest error %T is not *APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeDraining || apiErr.Op != "ingest" {
		t.Fatalf("APIError = %+v", apiErr)
	}

	s2, c2 := newTestServer(t, Config{Shards: 2})
	pinned := Connect(c2.base, WithParamsHash(s2.paramsHash^1))
	if _, err := pinned.IngestKind(context.Background(), "p", trace.KindBranch, synthEvents(10, 1)); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("pinned ingest = %v, want ErrParamsMismatch", err)
	}

	// Kind and policy rejections map to their sentinels the same way.
	_, c3 := newTestServer(t, Config{Shards: 2, Kinds: []trace.Kind{trace.KindBranch}})
	if _, err := c3.IngestKind(context.Background(), "p", trace.KindValue, synthEvents(10, 1)); !errors.Is(err, ErrUnsupportedKind) {
		t.Fatalf("IngestKind of unserved kind = %v, want ErrUnsupportedKind", err)
	}
	_, c4 := newTestServer(t, Config{Shards: 2})
	misnamed := Connect(c4.base, WithPolicy("zzz"))
	if _, err := misnamed.IngestKind(context.Background(), "p", trace.KindValue, synthEvents(10, 1)); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("IngestKind with unregistered policy pin = %v, want ErrUnknownPolicy", err)
	}
	mispinned := Connect(c4.base, WithPolicy("selftrain"))
	if _, err := mispinned.DecideKind(context.Background(), "p", trace.KindValue, 0); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("DecideKind with mismatched policy pin = %v, want ErrParamsMismatch", err)
	}
}

// TestInfoEndpoint pins /v1/info's contents and the VerifyParams round trip.
func TestInfoEndpoint(t *testing.T) {
	s, c := newTestServer(t, Config{Shards: 4})
	info, err := c.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.APIVersion != APIVersion {
		t.Fatalf("api_version = %q, want %q", info.APIVersion, APIVersion)
	}
	if info.ProtoVersion != trace.StreamProtoVersion {
		t.Fatalf("proto_version = %d, want %d", info.ProtoVersion, trace.StreamProtoVersion)
	}
	if info.Shards != 4 || info.Draining {
		t.Fatalf("info = %+v", info)
	}
	if info.ParamsHash != formatParamsHash(ParamsHash(s.cfg.Params)) {
		t.Fatalf("params_hash = %q, want %q", info.ParamsHash, formatParamsHash(ParamsHash(s.cfg.Params)))
	}
	h, err := ParseInfoParamsHash(info)
	if err != nil || h != s.paramsHash {
		t.Fatalf("ParseInfoParamsHash = %#x, %v; want %#x", h, err, s.paramsHash)
	}
	if want := trace.KindNames(); !slices.Equal(info.Kinds, want) {
		t.Fatalf("info.Kinds = %v, want %v (a default server serves every kind)", info.Kinds, want)
	}
	if info.Policy != core.PolicyReactive {
		t.Fatalf("info.Policy = %q, want %q", info.Policy, core.PolicyReactive)
	}

	if _, err := c.VerifyParams(context.Background(), s.paramsHash); err != nil {
		t.Fatalf("VerifyParams with matching hash: %v", err)
	}
	if _, err := c.VerifyParams(context.Background(), s.paramsHash^1); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("VerifyParams with wrong hash = %v, want ErrParamsMismatch", err)
	}

	s.BeginDrain()
	info, err = c.Info(context.Background())
	if err != nil || !info.Draining {
		t.Fatalf("info after drain = %+v, %v; want draining", info, err)
	}
}

// TestParamsHashSensitivity checks that the hash separates parameter sets
// and is stable for equal ones.
func TestParamsHashSensitivity(t *testing.T) {
	p := testParams()
	if ParamsHash(p) != ParamsHash(p) {
		t.Fatal("hash not deterministic")
	}
	q := p
	q.MisspecStep++
	if ParamsHash(p) == ParamsHash(q) {
		t.Fatal("hash ignores MisspecStep")
	}
	r := p
	r.EvictBias += 0.5
	if ParamsHash(p) == ParamsHash(r) {
		t.Fatal("hash ignores EvictBias")
	}
	b := p
	b.NoEviction = !b.NoEviction
	if ParamsHash(p) == ParamsHash(b) {
		t.Fatal("hash ignores NoEviction")
	}
}
