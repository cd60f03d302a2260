package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// TestMixedKindIsolationSameProgram pins the core serving-table claim of the
// kind-generic API: four kinds under the same program name are four
// independent unit populations in one table. Each kind's decision sequence
// matches its own in-process mirror over its own event stream, and reading
// one kind's state never shows another's.
func TestMixedKindIsolationSameProgram(t *testing.T) {
	_, c := newTestServer(t, Config{Shards: 4})
	const program = "gzip"

	kinds := []trace.Kind{trace.KindBranch, trace.KindValue, trace.KindMemdep, trace.KindTLSpec}
	type side struct {
		set   *core.Controller
		instr uint64
	}
	mirrors := map[trace.Kind]*side{}
	for _, k := range kinds {
		set, err := core.NewPolicySet(core.PolicyReactive, testParams())
		if err != nil {
			t.Fatal(err)
		}
		mirrors[k] = &side{set: set}
	}

	// Interleave batches across kinds so the streams advance together; the
	// per-kind event sequences differ (distinct seeds), so any cross-kind
	// state bleed would surface as a mirror mismatch.
	for round := 0; round < 4; round++ {
		for i, k := range kinds {
			evs := synthEvents(1500, uint64(100*i+round))
			ds, err := c.IngestKind(context.Background(), program, k, evs)
			if err != nil {
				t.Fatalf("round %d kind %s: %v", round, k, err)
			}
			if len(ds) != len(evs) {
				t.Fatalf("kind %s: %d decisions for %d events", k, len(ds), len(evs))
			}
			m := mirrors[k]
			for j, ev := range evs {
				m.instr += uint64(ev.Gap)
				v, st, dir, live := m.set.OnEvent(ev.Branch, ev.Taken, m.instr)
				want := Decision{Verdict: v, State: st, Dir: dir, Live: live}
				if ds[j] != want {
					t.Fatalf("round %d kind %s event %d: daemon %v, mirror %v", round, k, j, ds[j], want)
				}
			}
		}
	}

	// Point reads are isolated the same way: each kind's unit 0 reports its
	// own mirror's state under the shared program name.
	for _, k := range kinds {
		d, err := c.DecideKind(context.Background(), program, k, 0)
		if err != nil {
			t.Fatalf("DecideKind %s: %v", k, err)
		}
		m := mirrors[k]
		dir, live := m.set.Speculating(0)
		if d.State != m.set.UnitState(0).String() || d.Dir != dir || d.Live != live {
			t.Fatalf("kind %s decide = %+v, mirror state %s dir=%v live=%v",
				k, d, m.set.UnitState(0), dir, live)
		}
		if d.Kind != k.String() || d.Program != program {
			t.Fatalf("kind %s decide echoes %q/%q", k, d.Program, d.Kind)
		}
	}
}

// TestV1V2ByteExactBranch pins that the three spellings of a branch ingest —
// /v1/ingest with kind omitted, /v1/ingest with kind=branch, and the
// /v2/ingest alias — are one request: for the same bodies they answer
// byte-identical responses, log identical WAL records under the plain
// program name, and leave identical table entries and cursors.
func TestV1V2ByteExactBranch(t *testing.T) {
	type outcome struct {
		responses [][]byte
		records   []wal.Record
		entries   []EntrySnapshot
		cursors   []CursorSnapshot
	}
	evs := synthEvents(6000, 9)
	run := func(path string) outcome {
		t.Helper()
		env := newWALEnv(t, 4)
		l := env.openLog(t, wal.SyncAlways)
		s, c := env.newServer(t, l)
		var out outcome
		for _, b := range streamBatches(evs, 1500) {
			resp, err := http.Post(c.base+path, "application/octet-stream", bytes.NewReader(trace.AppendFrame(nil, b)))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s: status %d, %v: %s", path, resp.StatusCode, err, body)
			}
			out.responses = append(out.responses, body)
		}
		out.entries = s.table.SnapshotEntries()
		out.cursors = s.exportCursors()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := wal.NewReader(wal.ReaderOptions{Dir: env.walDir, ParamsHash: ParamsHash(testParams()), FrameOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out.records = append(out.records, wal.Record{Seq: rec.Seq, Program: rec.Program, Frame: slices.Clone(rec.Frame)})
		}
		return out
	}

	want := run("/v1/ingest?program=gzip")
	if len(want.records) != 4 || want.records[0].Program != "gzip" {
		t.Fatalf("kind-omitted ingest logged %d records, first under %q; want 4 under the plain name",
			len(want.records), want.records[0].Program)
	}
	for _, path := range []string{"/v1/ingest?program=gzip&kind=branch", "/v2/ingest?program=gzip&kind=branch"} {
		got := run(path)
		if !reflect.DeepEqual(got.responses, want.responses) {
			t.Errorf("%s: response bodies differ from the kind-omitted ingest", path)
		}
		if !reflect.DeepEqual(got.records, want.records) {
			t.Errorf("%s: WAL records differ from the kind-omitted ingest", path)
		}
		if !reflect.DeepEqual(got.entries, want.entries) || !reflect.DeepEqual(got.cursors, want.cursors) {
			t.Errorf("%s: table entries or cursors differ from the kind-omitted ingest", path)
		}
	}
}

// TestServedKindMaskEveryEndpoint pins that the served-kind mask guards every
// program endpoint alike: on a daemon serving only value, a request that
// names an unserved kind — or omits kind, which means branch — is rejected
// with unsupported_kind by ingest, its /v2 alias, decide and cursor, and
// applies nothing; kind=value is served.
func TestServedKindMaskEveryEndpoint(t *testing.T) {
	s := New(Config{Params: testParams(), Shards: 2, Kinds: []trace.Kind{trace.KindValue}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const n = 10
	for _, ep := range []struct{ name, method, path string }{
		{"ingest", http.MethodPost, "/v1/ingest?program=p"},
		{"v2 ingest alias", http.MethodPost, "/v2/ingest?program=p"},
		{"decide", http.MethodGet, "/v1/decide?program=p&id=0"},
		{"cursor", http.MethodGet, "/v1/cursor?program=p"},
	} {
		for _, kq := range []struct {
			name, query string
			served      bool
		}{
			{"omitted", "", false},
			{"branch", "&kind=branch", false},
			{"memdep", "&kind=memdep", false},
			{"value", "&kind=value", true},
		} {
			t.Run(ep.name+"/kind="+kq.name, func(t *testing.T) {
				var body io.Reader
				if ep.method == http.MethodPost {
					body = bytes.NewReader(trace.AppendFrame(nil, synthEvents(n, 1)))
				}
				req, err := http.NewRequest(ep.method, ts.URL+ep.path+kq.query, body)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				raw, _ := io.ReadAll(resp.Body)
				if kq.served {
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("status %d, want 200: %s", resp.StatusCode, raw)
					}
					return
				}
				var env errorEnvelope
				if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &env) != nil ||
					env.Code != CodeUnsupportedKind {
					t.Fatalf("status %d body %s, want 400 %s", resp.StatusCode, raw, CodeUnsupportedKind)
				}
			})
		}
	}
	// Only the two kind=value ingests reached the table.
	var total ShardMetrics
	for _, m := range s.Table().Metrics() {
		total.Add(m)
	}
	if total.Events != 2*n {
		t.Fatalf("table applied %d events, want %d (the kind=value ingests only)", total.Events, 2*n)
	}
}

// TestCursorPerKind pins that /v1/cursor reads the cursor of the kind it
// names, and that an omitted kind reads branch's: value events advance only
// the value cursor of their program.
func TestCursorPerKind(t *testing.T) {
	s, c := newTestServer(t, Config{Shards: 2})
	ctx := context.Background()
	if _, err := c.IngestKind(ctx, "p", trace.KindValue, synthEvents(10, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestKind(ctx, "p", trace.KindBranch, synthEvents(3, 2)); err != nil {
		t.Fatal(err)
	}
	for kind, want := range map[trace.Kind]uint64{trace.KindValue: 10, trace.KindBranch: 3, trace.KindMemdep: 0} {
		cur, err := c.Cursor(ctx, "p", kind)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Events != want || cur.Program != "p" {
			t.Errorf("cursor(p, %s) = %+v, want %d events", kind, cur, want)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/cursor?program=p")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cur CursorResponse
	if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil || cur.Events != 3 {
		t.Fatalf("kind-omitted cursor = %+v, %v; want branch's 3 events", cur, err)
	}
}

// TestWALKindTransparentRecovery pins that the WAL treats kind-encoded
// program keys as opaque: a crash after mixed-kind ingest recovers to the
// exact controller state of the crashed server, including the non-branch
// entries, with no WAL format change (branch records still carry the plain
// program name a pre-kind build wrote).
func TestWALKindTransparentRecovery(t *testing.T) {
	env := newWALEnv(t, 4)
	l := env.openLog(t, wal.SyncAlways)
	victim, vc := env.newServer(t, l)

	type kindBatch struct {
		program string
		kind    trace.Kind
		n       int
		seed    uint64
	}
	batches := []kindBatch{
		{"gzip", trace.KindBranch, 3000, 1},
		{"gzip", trace.KindValue, 2500, 2},
		{"vpr", trace.KindMemdep, 2000, 3},
		{"gzip", trace.KindTLSpec, 1500, 4},
		{"gzip", trace.KindBranch, 1000, 5},
		{"vpr", trace.KindValue, 500, 6},
	}
	for _, b := range batches {
		if _, err := vc.IngestKind(context.Background(), b.program, b.kind, synthEvents(b.n, b.seed)); err != nil {
			t.Fatalf("%s/%s: %v", b.program, b.kind, err)
		}
	}
	crashed := victim.table.SnapshotEntries()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := env.openLog(t, wal.SyncAlways)
	recovered, _ := env.newServer(t, l2)
	res, err := recovered.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if res.ReplayedRecords == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if got := recovered.table.SnapshotEntries(); !reflect.DeepEqual(got, crashed) {
		t.Fatal("recovered mixed-kind entries differ from the crashed server's")
	}

	// The WAL's branch records carry the plain program name — what a
	// pre-kind daemon wrote — so a pre-refactor log is just the branch-only
	// special case of this replay.
	for _, b := range batches {
		want := trace.EncodeKindProgram(b.kind, b.program)
		d := recovered.table.DecideKind(b.program, b.kind, 0)
		if d == (Decision{}) && b.kind == trace.KindBranch {
			t.Fatalf("no recovered state under key %q", want)
		}
	}
}

// TestSnapshotPolicyRoundTripAndMismatch pins the snapshot policy contract:
// a snapshot restores into a server running the same policy (resuming the
// identical decision stream), and a server running a different policy
// rejects it with ErrSnapshotMismatch instead of silently reinterpreting
// the frozen state under different transition rules.
func TestSnapshotPolicyRoundTripAndMismatch(t *testing.T) {
	for _, policy := range core.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			s, c := newTestServer(t, Config{SnapshotDir: dir, Shards: 2, Policy: policy})
			evs := synthEvents(4000, 7)
			if _, err := c.IngestKind(context.Background(), "p", trace.KindValue, evs[:2000]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.SnapshotNow(); err != nil {
				t.Fatal(err)
			}

			same := New(Config{Params: testParams(), SnapshotDir: dir, Shards: 2, Policy: policy})
			if _, err := same.RestoreFromDisk(); err != nil {
				t.Fatalf("restore into same policy: %v", err)
			}
			key := trace.EncodeKindProgram(trace.KindValue, "p")
			wantTail, _ := s.table.ApplyBatchKind("p", trace.KindValue, evs[2000:], s.cursorFor(key).instr, nil)
			gotTail, _ := same.table.ApplyBatchKind("p", trace.KindValue, evs[2000:], s.cursorFor(key).instr, nil)
			if !bytes.Equal(gotTail, wantTail) {
				t.Fatal("restored server's future decisions diverge from the snapshotted one's")
			}

			for _, other := range core.PolicyNames() {
				if other == policy {
					continue
				}
				mismatched := New(Config{Params: testParams(), SnapshotDir: dir, Shards: 2, Policy: other})
				if _, err := mismatched.RestoreFromDisk(); !errors.Is(err, ErrSnapshotMismatch) {
					t.Fatalf("restore of %s snapshot into %s server = %v, want ErrSnapshotMismatch",
						policy, other, err)
				}
			}
		})
	}
}

// TestParamsPolicyHash pins the compatibility-critical hash property: the
// reactive policy (and the empty legacy spelling) leaves ParamsHash
// untouched, so every pre-policy artifact keeps verifying, while each other
// registered policy produces a distinct hash under identical parameters.
func TestParamsPolicyHash(t *testing.T) {
	p := testParams()
	if ParamsPolicyHash(p, "") != ParamsHash(p) || ParamsPolicyHash(p, core.PolicyReactive) != ParamsHash(p) {
		t.Fatal("reactive/empty policy perturbs the params hash")
	}
	seen := map[uint64]string{ParamsHash(p): core.PolicyReactive}
	for _, name := range core.PolicyNames() {
		if name == core.PolicyReactive {
			continue
		}
		h := ParamsPolicyHash(p, name)
		if prev, dup := seen[h]; dup {
			t.Fatalf("policies %q and %q collide at %016x", prev, name, h)
		}
		seen[h] = name
	}
}

// TestPolicyServerMatchesPolicySet drives a non-reactive daemon end to end
// and checks its decisions against the in-process controller — the serving
// path and the experiment/verification path agree for every policy, not
// just the fast-path reactive one.
func TestPolicyServerMatchesPolicySet(t *testing.T) {
	for _, policy := range core.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			_, c := newTestServer(t, Config{Shards: 4, Policy: policy})
			set, err := core.NewPolicySet(policy, testParams())
			if err != nil {
				t.Fatal(err)
			}
			var instr uint64
			for _, b := range streamBatches(synthEvents(6000, 17), 1200) {
				ds, err := c.IngestKind(context.Background(), "p", trace.KindMemdep, b)
				if err != nil {
					t.Fatal(err)
				}
				for j, ev := range b {
					instr += uint64(ev.Gap)
					v, st, dir, live := set.OnEvent(ev.Branch, ev.Taken, instr)
					want := Decision{Verdict: v, State: st, Dir: dir, Live: live}
					if ds[j] != want {
						t.Fatalf("event %d: daemon %v, mirror %v", j, ds[j], want)
					}
				}
			}
		})
	}
}

// TestServesKindConfig pins the -kinds restriction surface: a configured
// subset is what /v1/info advertises and what ServesKind answers.
func TestServesKindConfig(t *testing.T) {
	s := New(Config{Params: testParams(), Shards: 2, Kinds: []trace.Kind{trace.KindBranch, trace.KindTLSpec}})
	for _, tc := range []struct {
		kind trace.Kind
		want bool
	}{
		{trace.KindBranch, true},
		{trace.KindValue, false},
		{trace.KindMemdep, false},
		{trace.KindTLSpec, true},
	} {
		if got := s.ServesKind(tc.kind); got != tc.want {
			t.Errorf("ServesKind(%s) = %v, want %v", tc.kind, got, tc.want)
		}
	}
	if names := s.KindNames(); !reflect.DeepEqual(names, []string{"branch", "tlspec"}) {
		t.Fatalf("KindNames() = %v", names)
	}
	if s.ServesKind(trace.Kind(99)) {
		t.Fatal("an invalid kind reports as served")
	}
	if fmt.Sprint(New(Config{Params: testParams(), Shards: 2}).KindNames()) != fmt.Sprint(trace.KindNames()) {
		t.Fatal("an empty Kinds config does not default to serving every kind")
	}
}
