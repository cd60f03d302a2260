// Benchmarks for the batched ingest hot path: ApplyBatchKind for the branch
// and value kinds on the same event stream, ApplyFrame on a fleet-sized
// table, the stream session's three per-event kernels (decode, apply,
// respond) on stream-hot's frames, the full HTTP ingest handler (decode +
// apply + respond) with allocation accounting, and the restart path (WAL
// open and replay) on a restart-sized log.
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
	"reactivespec/internal/wal"
	"reactivespec/internal/workload"
)

// benchBurstyEvents generates a synthetic loop-dominated stream: bursts of
// one branch (lengths uniform in [1, 2·meanBurst]) over a small working set,
// so consecutive events usually hit the same shard and the same branch. It
// is not the shape of the calibrated workloads: at the benchmarks' arguments
// (64 branches, mean burst 24) 95.9% of its events repeat the previous
// event's branch, against 3.4% of the events in stream-hot's gzip frames and
// 1.1% in gcc's. The table keeps no cache of the last branch for it: every
// event, repeated or not, resolves through the program's dense slots.
// BenchmarkStreamKernels/apply is the number for the calibrated shape.
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
// Its 64 branches all sit in the dense slots after the first op.
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
	var hits, total int
	for i, fr := range frames {
		evs, err := trace.DecodeFrameAppend(fr.payload, evs[:0])
		if err != nil {
			b.Fatal(err)
		}
		h, n := denseHits(t, keys[i], evs)
		hits, total = hits+h, total+n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		apply(order[n%len(order)])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frameEvents), "ns/event")
	b.ReportMetric(float64(entries), "entries")
	b.ReportMetric(100*float64(hits)/float64(total), "dense%")
}

// denseHits counts the events of evs whose entries program's dense slots
// hold, so applying them takes no flat-index probe; it returns that count
// and len(evs).
func denseHits(t *server.Table, program string, evs []trace.Event) (hits, n int) {
	for _, ev := range evs {
		if t.DenseSlotted(program, ev.Branch) {
			hits++
		}
	}
	return hits, len(evs)
}

// streamKernelFrames is one stream-hot session's input: a benchmark's eval
// input cut into 256 pre-encoded frames of 1024 events, the frames
// perfbench's stream-hot workload sends cyclically over one session.
type streamKernelFrames struct {
	program string
	events  [][]trace.Event
	frames  [][]byte
}

// buildStreamKernelFrames generates the two stream-hot sessions, gzip and
// gcc, for run seed 1. The construction (the per-session seed mix, the frame
// size and count) repeats perfbench's buildStreamHot, which the root module
// cannot import.
func buildStreamKernelFrames(b *testing.B) []streamKernelFrames {
	const (
		frameEvents = 1024
		cycleFrames = 256
		seed        = 1
	)
	mix := func(seed, tag uint64) uint64 {
		z := seed*0x9e3779b97f4a7c15 + tag*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var out []streamKernelFrames
	for i, bench := range []string{"gzip", "gcc"} {
		spec := workload.MustBuild(bench, workload.InputEval, workload.Options{Seed: mix(seed, uint64(i))})
		gen := workload.NewGenerator(spec)
		s := streamKernelFrames{program: bench}
		for f := 0; f < cycleFrames; f++ {
			evs := make([]trace.Event, frameEvents)
			if n := gen.NextBatch(evs); n != len(evs) {
				b.Fatalf("%s: workload ended after %d frames", bench, f)
			}
			s.events = append(s.events, evs)
			s.frames = append(s.frames, trace.EncodeFrameAppend(nil, evs))
		}
		out = append(out, s)
	}
	return out
}

// BenchmarkStreamKernels times the three per-event kernels a stream session
// runs on every event frame, one frame per op over the 256 frames of each
// stream-hot session:
//
//   - decode: trace.DecodeFrameAppend, the frame walker;
//   - apply: the table apply on a warmed 16-shard table (every frame
//     applied twice before timing, so the timed loop creates no entry);
//   - apply-sparse: apply on the same frames with every branch ID
//     scattered over the full uint32 range, so nearly every event misses
//     the table's dense slots and takes the flat-index probe;
//   - respond: trace.AppendDecisionsFrame over the decisions the warmed
//     table answers for each frame.
//
// Each reports ns/event; the apply kernels also report the share of events
// the dense slots served, and respond the wire bytes per event.
func BenchmarkStreamKernels(b *testing.B) {
	sessions := buildStreamKernelFrames(b)
	for _, s := range sessions {
		nf := len(s.frames)
		frameEvents := len(s.events[0])
		perEvent := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frameEvents), "ns/event")
		}
		b.Run("decode/"+s.program, func(b *testing.B) {
			dst := make([]trace.Event, 0, frameEvents)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if dst, err = trace.DecodeFrameAppend(s.frames[i%nf], dst[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perEvent(b)
		})
		// warm runs every frame of frames through a fresh daemon-shaped
		// table twice and returns it with the instruction count reached
		// and the second pass's decisions per frame.
		warm := func(frames [][]trace.Event) (*server.Table, uint64, [][]byte) {
			t := server.NewTable(core.DefaultParams().Scaled(10), 16)
			var instr uint64
			decs := make([][]byte, nf)
			for pass := 0; pass < 2; pass++ {
				for f, evs := range frames {
					decs[f], instr = t.ApplyBatchKind(s.program, trace.KindBranch, evs, instr, decs[f][:0])
				}
			}
			return t, instr, decs
		}
		// The scattered frames multiply every ID by a fixed odd constant,
		// a bijection on uint32: the branches stay apart, so every
		// decision is the same, but only ID 0 stays below the dense bound.
		sparse := make([][]trace.Event, nf)
		for f, evs := range s.events {
			sparse[f] = make([]trace.Event, len(evs))
			for i, ev := range evs {
				ev.Branch *= 0x9e3779b1
				sparse[f][i] = ev
			}
		}
		for _, k := range []struct {
			name   string
			frames [][]trace.Event
		}{{"apply/", s.events}, {"apply-sparse/", sparse}} {
			b.Run(k.name+s.program, func(b *testing.B) {
				t, instr, _ := warm(k.frames)
				var hits, total int
				for _, evs := range k.frames {
					h, n := denseHits(t, s.program, evs)
					hits, total = hits+h, total+n
				}
				dst := make([]byte, 0, frameEvents)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst, instr = t.ApplyBatchKind(s.program, trace.KindBranch, k.frames[i%nf], instr, dst[:0])
				}
				b.StopTimer()
				perEvent(b)
				b.ReportMetric(100*float64(hits)/float64(total), "dense%")
			})
		}
		b.Run("respond/"+s.program, func(b *testing.B) {
			_, _, decs := warm(s.events)
			var wire, scratch []byte
			wireBytes := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wire, scratch = trace.AppendDecisionsFrame(wire[:0], decs[i%nf], scratch)
				wireBytes += len(wire)
			}
			b.StopTimer()
			perEvent(b)
			b.ReportMetric(float64(wireBytes)/float64(b.N*frameEvents), "wireB/event")
		})
	}
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

// BenchmarkRecover times the two halves of a daemon restart on a log the
// size of the restart workload's replayed tail: 6,144 records of 256 events
// from gzip's calibrated eval input, in one segment. Each reports ns/event:
//
//   - open: wal.Open, which checks every record's CRC on the final segment
//     and repairs a torn tail (here there is none);
//   - recover: Server.Recover on a fresh server with no snapshot, which
//     decodes every record and applies it to the table.
func BenchmarkRecover(b *testing.B) {
	const (
		records      = 6144
		recordEvents = 256
	)
	params := core.DefaultParams().Scaled(10)
	opts := wal.Options{Dir: b.TempDir(), ParamsHash: server.ParamsHash(params), Policy: wal.SyncNever}
	l, err := wal.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(workload.MustBuild("gzip", workload.InputEval, workload.Options{Seed: 1}))
	evs := make([]trace.Event, recordEvents)
	var frame []byte
	for i := 0; i < records; i++ {
		if n := gen.NextBatch(evs); n != len(evs) {
			b.Fatalf("gzip: workload ended after %d records", i)
		}
		frame = trace.EncodeFrameAppend(frame[:0], evs)
		if _, err := l.AppendPayload("gzip", frame); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	perEvent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records*recordEvents), "ns/event")
	}
	b.Run("open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l, err := wal.Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			if l.NextSeq() != records {
				b.Fatalf("Open found %d records, want %d", l.NextSeq(), records)
			}
			b.StopTimer()
			l.Close()
			b.StartTimer()
		}
		b.StopTimer()
		perEvent(b)
	})
	b.Run("recover", func(b *testing.B) {
		l, err := wal.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := server.New(server.Config{Params: params, WAL: l}).Recover()
			if err != nil {
				b.Fatal(err)
			}
			if res.ReplayedEvents != records*recordEvents {
				b.Fatalf("replayed %d events, want %d", res.ReplayedEvents, records*recordEvents)
			}
		}
		b.StopTimer()
		perEvent(b)
	})
}
