// Benchmarks for the batched ingest hot path: ApplyBatchKind for the branch
// and value kinds on the same event stream, ApplyFrame on a fleet-sized
// table, and the full HTTP ingest handler (decode + apply + respond) with
// allocation accounting.
package reactivespec_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/workload"
)

// benchBurstyEvents generates the loop-dominated stream real traces look
// like: bursts of one branch (geometric, mean ~meanBurst) over a small
// working set, so consecutive events usually hit the same shard and often
// the same branch — the case batch grouping and the last-entry cache
// amortize.
func benchBurstyEvents(n, nbranch, meanBurst int) []trace.Event {
	evs := make([]trace.Event, 0, n)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for len(evs) < n {
		r := next()
		branch := trace.BranchID(r) % trace.BranchID(nbranch)
		burst := 1 + int(r>>40)%(2*meanBurst)
		for j := 0; j < burst && len(evs) < n; j++ {
			r = next()
			evs = append(evs, trace.Event{
				Branch: branch,
				Taken:  r&7 < 5,
				Gap:    uint32(4 + r>>56&7),
			})
		}
	}
	return evs
}

const (
	benchIngestEvents = 1 << 15
	benchIngestShards = 4
)

// BenchmarkTableApplyBatchKind applies the bursty stream in one batch per
// op, as the branch kind (keyed by the plain program name) and as the value
// kind (keyed by the encoded kind-program), so the pair shows what the kind
// key costs. The key is encoded once per batch, on a path both kinds share.
func BenchmarkTableApplyBatchKind(b *testing.B) {
	evs := benchBurstyEvents(benchIngestEvents, 64, 24)
	for _, kind := range []trace.Kind{trace.KindBranch, trace.KindValue} {
		b.Run("kind="+kind.String(), func(b *testing.B) {
			t := server.NewTable(core.DefaultParams().Scaled(10), benchIngestShards)
			var instr uint64
			dst := make([]byte, 0, len(evs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, instr = t.ApplyBatchKind("bench", kind, evs, instr, dst[:0])
				if len(dst) != len(evs) {
					b.Fatalf("%d decisions for %d events", len(dst), len(evs))
				}
			}
			b.ReportMetric(float64(len(evs)), "events/op")
		})
	}
}

// BenchmarkTableApplyFrameFleet is ApplyFrame on a table too large to stay
// in cache: the suite's 12 benchmarks × eval/profile inputs × 4 kinds, each
// stream cut into 1024-event workload frames applied round-robin over the
// streams, into a 16-shard table like the daemon's. The table is filled by
// one pass over every frame before timing, so the timed loop touches
// ~6·10⁴ existing entries and creates none. The small table of
// BenchmarkTableApplyBatchKind stays cache-resident and hides per-entry
// memory costs.
func BenchmarkTableApplyFrameFleet(b *testing.B) {
	const (
		frameEvents  = 1024
		streamFrames = 16
	)
	type fleetFrame struct {
		program string
		kind    trace.Kind
		payload []byte
	}
	var (
		frames []fleetFrame // stream-major: streamFrames per stream
		evs    = make([]trace.Event, frameEvents*streamFrames)
	)
	for _, bench := range workload.Suite() {
		for _, in := range []workload.InputID{workload.InputEval, workload.InputProfile} {
			spec := workload.MustBuild(bench, in, workload.Options{Seed: 1})
			for k := trace.Kind(0); k < trace.KindCount; k++ {
				gen := workload.NewGenerator(spec)
				if n := gen.NextBatch(evs); n != len(evs) {
					b.Fatalf("%s.%s: workload too short (%d events)", bench, in, n)
				}
				for f := 0; f < streamFrames; f++ {
					frames = append(frames, fleetFrame{program: bench + "." + in.String(), kind: k,
						payload: trace.EncodeFrameAppend(nil, evs[f*frameEvents:(f+1)*frameEvents])})
				}
			}
		}
	}
	streams := len(frames) / streamFrames
	// order interleaves the streams: frame f of every stream, then f+1.
	order := make([]int, 0, len(frames))
	for f := 0; f < streamFrames; f++ {
		for s := 0; s < streams; s++ {
			order = append(order, s*streamFrames+f)
		}
	}
	keys := make([]string, len(frames))
	for i, fr := range frames {
		keys[i] = trace.EncodeKindProgram(fr.kind, fr.program)
	}

	t := server.NewTable(core.DefaultParams().Scaled(10), 16)
	instr := make([]uint64, len(frames)) // per-stream cursors, indexed by the stream's first frame
	dst := make([]byte, 0, frameEvents)
	apply := func(i int) {
		s := i / streamFrames * streamFrames
		dst, instr[s] = t.ApplyFrame(keys[i], frames[i].payload, instr[s], dst[:0])
	}
	for _, i := range order {
		apply(i)
	}
	entries := 0
	for _, m := range t.Metrics() {
		entries += int(m.Entries)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		apply(order[n%len(order)])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frameEvents), "ns/event")
	b.ReportMetric(float64(entries), "entries")
}

// discardResponseWriter is an http.ResponseWriter that throws the response
// away, so the handler benchmark measures the handler, not a recorder.
type discardResponseWriter struct{ h http.Header }

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponseWriter) WriteHeader(int)             {}

// BenchmarkIngestHandler measures the whole POST /v1/ingest path — frame
// decode, batched apply, response encode — on one pre-encoded batch per op.
// Allocations per op are the tracked number: the pooled scratch should hold
// them near-constant in batch size.
func BenchmarkIngestHandler(b *testing.B) {
	s := server.New(server.Config{Params: core.DefaultParams().Scaled(10), Shards: benchIngestShards})
	h := s.Handler()
	evs := benchBurstyEvents(benchIngestEvents, 64, 24)
	body := trace.AppendFrame(nil, evs)

	req := httptest.NewRequest(http.MethodPost,
		fmt.Sprintf("/v1/ingest?program=bench"), bytes.NewReader(body))
	w := &discardResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, req)
	}
	b.ReportMetric(float64(len(evs)), "events/op")
}
