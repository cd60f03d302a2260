// Benchmarks regenerating the paper's tables and figures, one per artifact,
// at a reduced scale suitable for `go test -bench`. Full-scale regeneration
// is the CLI's job:
//
//	go run ./cmd/reactivespec all
//
// Micro-benchmarks for the hot substrates (controller, workload generator,
// predictor, cache, MSSP machine) follow the per-figure benchmarks.
package reactivespec_test

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"reactivespec/internal/bpred"
	"reactivespec/internal/cache"
	"reactivespec/internal/core"
	"reactivespec/internal/experiments"
	"reactivespec/internal/harness"
	"reactivespec/internal/mssp"
	"reactivespec/internal/program"
	"reactivespec/internal/replay"
	"reactivespec/internal/server"
	"reactivespec/internal/tlspec"
	"reactivespec/internal/trace"
	"reactivespec/internal/values"
	"reactivespec/internal/workload"
)

// benchCfg is the reduced-scale configuration shared by the per-figure
// benchmarks: 1/20 of the calibrated workload with matching parameters.
func benchCfg(benches ...string) experiments.Config {
	return experiments.Config{Scale: 0.05, ParamScale: 50, Benchmarks: benches}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteTable1(io.Discard, benchCfg(), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	cfg := benchCfg("gzip", "mcf")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(experiments.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Baseline(b *testing.B) {
	benchControllerConfig(b, "baseline")
}

func BenchmarkFig5NoEviction(b *testing.B) {
	benchControllerConfig(b, "no-evict")
}

func BenchmarkFig5NoRevisit(b *testing.B) {
	benchControllerConfig(b, "no-revisit")
}

func BenchmarkFig5EvictBySampling(b *testing.B) {
	benchControllerConfig(b, "evict-by-sampling")
}

// benchControllerConfig runs one Figure 5 / Table 4 controller configuration
// over one reduced-scale benchmark.
func benchControllerConfig(b *testing.B, name string) {
	cfg := benchCfg("gzip")
	base := cfg.Params()
	spec := workload.MustBuild("gzip", workload.InputEval, workload.Options{
		EventScale: workload.DefaultEventScale * 0.05,
	})
	params := base
	switch name {
	case "no-evict":
		params = base.WithNoEviction()
	case "no-revisit":
		params = base.WithNoRevisit()
	case "evict-by-sampling":
		params = base.WithSamplingEviction()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := harness.Run(workload.NewGenerator(spec), core.New(params))
		if st.Events == 0 {
			b.Fatal("no events")
		}
	}
	b.ReportMetric(float64(spec.Events), "events/op")
}

func BenchmarkTable3(b *testing.B) {
	cfg := benchCfg("eon", "gzip")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	cfg := benchCfg("gzip")
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		experiments.Table4(points)
	}
}

func BenchmarkFig6(b *testing.B) {
	cfg := benchCfg("gap")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7ClosedVsOpen(b *testing.B) {
	cfg := experiments.Config{Scale: 0.1, Benchmarks: []string{"crafty"}}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8LatencySweep(b *testing.B) {
	cfg := experiments.Config{Scale: 0.1, Benchmarks: []string{"bzip2"}}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	cfg := experiments.Config{Scale: 0.1, Benchmarks: []string{"vortex"}}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkController measures the reactive controller's per-event cost on a
// mixed stream (the figure every functional experiment's runtime reduces to).
func BenchmarkController(b *testing.B) {
	params := core.DefaultParams().Scaled(10)
	ctl := core.New(params)
	var instr uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := trace.BranchID(i & 63)
		instr += 6
		ctl.OnBranch(id, (i*2654435761)&7 < 3, instr)
	}
}

// BenchmarkWorkloadGenerator measures raw event-generation throughput.
func BenchmarkWorkloadGenerator(b *testing.B) {
	spec := workload.MustBuild("gcc", workload.InputEval, workload.Options{})
	gen := workload.NewGenerator(spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := gen.Next(); !ok {
			gen.Reset()
		}
	}
}

// BenchmarkEndToEndFunctional measures the full per-event pipeline
// (generation + controller + accounting).
func BenchmarkEndToEndFunctional(b *testing.B) {
	spec := workload.MustBuild("gzip", workload.InputEval, workload.Options{})
	gen := workload.NewGenerator(spec)
	ctl := core.New(core.DefaultParams().Scaled(10))
	var instr uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, ok := gen.Next()
		if !ok {
			gen.Reset()
			ev, _ = gen.Next()
		}
		instr += uint64(ev.Gap)
		ctl.OnBranch(ev.Branch, ev.Taken, instr)
	}
}

func BenchmarkGshare(b *testing.B) {
	g := bpred.NewGshare(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(uint64(i&1023)<<2, i&5 == 0)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	shared := cache.NewShared()
	h := cache.NewHierarchy(0, cache.LeadingL1, shared)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i*64)%(8<<20), i&7 == 0)
	}
}

// BenchmarkMSSPMachine measures whole-machine simulation throughput
// (instructions simulated per op reported as a metric).
func BenchmarkMSSPMachine(b *testing.B) {
	o := program.DefaultSynthOptions()
	o.Regions = 16
	o.RunInstrs = 1_000_000
	prog, err := program.Synthesize("bench", o)
	if err != nil {
		b.Fatal(err)
	}
	cfg := mssp.DefaultConfig()
	cfg.RunInstrs = o.RunInstrs
	params := core.DefaultParams().Scaled(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mssp.Run(prog, core.New(params), cfg)
		if res.Tasks == 0 {
			b.Fatal("no tasks")
		}
	}
	b.ReportMetric(float64(o.RunInstrs), "instrs/op")
}

// BenchmarkReplayEngine measures the rePLay frame engine's simulation
// throughput.
func BenchmarkReplayEngine(b *testing.B) {
	o := program.DefaultSynthOptions()
	o.Regions = 12
	o.RunInstrs = 500_000
	prog, err := program.Synthesize("bench-replay", o)
	if err != nil {
		b.Fatal(err)
	}
	rcfg := replay.DefaultConfig()
	rcfg.RunInstrs = o.RunInstrs
	params := core.DefaultParams().Scaled(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := replay.Run(prog, core.New(params), rcfg)
		if res.Frames == 0 {
			b.Fatal("no frames")
		}
	}
	b.ReportMetric(float64(o.RunInstrs), "instrs/op")
}

// BenchmarkTLSMachine measures the thread-level-speculation machine.
func BenchmarkTLSMachine(b *testing.B) {
	params := core.DefaultParams().Scaled(50)
	params.MonitorPeriod = 200
	params.OptLatency = 2_000
	params.WaitPeriod = 2_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := tlspec.Run(tlspec.SynthSuite(0, 0.1), core.New(params), tlspec.DefaultConfig())
		if res.ParallelIters == 0 {
			b.Fatal("nothing parallelized")
		}
	}
}

// BenchmarkValueController measures the value-speculation controller.
func BenchmarkValueController(b *testing.B) {
	ctl := values.New(core.DefaultParams().Scaled(10))
	var instr uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instr += 5
		ctl.AddInstrs(5)
		ctl.OnLoad(i&31, uint32(i&3), instr)
	}
}

// --- Sharded controller-table benchmarks (the reactived substrate) ---

// serialTable is the unsharded baseline the lock-striped table replaces: a
// single mutex in front of a single controller map. Same decision semantics,
// no concurrency.
type serialTable struct {
	mu      sync.Mutex
	params  core.Params
	entries map[serialKey]*core.Controller
}

type serialKey struct {
	program string
	branch  trace.BranchID
}

func newSerialTable(params core.Params) *serialTable {
	return &serialTable{params: params, entries: make(map[serialKey]*core.Controller)}
}

func (t *serialTable) Apply(program string, ev trace.Event, instr uint64) core.Verdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := serialKey{program, ev.Branch}
	ctl := t.entries[k]
	if ctl == nil {
		ctl = core.New(t.params)
		t.entries[k] = ctl
	}
	ctl.AddInstrs(uint64(ev.Gap))
	return ctl.OnBranch(0, ev.Taken, instr)
}

func (t *serialTable) Decide(program string, id trace.BranchID) core.State {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ctl := t.entries[serialKey{program, id}]; ctl != nil {
		return ctl.UnitState(0)
	}
	return core.Monitor
}

// benchTableEvents pre-generates a deterministic mixed stream over nbranch
// branches so every table benchmark applies identical work.
func benchTableEvents(n, nbranch int) []trace.Event {
	evs := make([]trace.Event, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range evs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		evs[i] = trace.Event{
			Branch: trace.BranchID(x) % trace.BranchID(nbranch),
			Taken:  x>>32&7 < 3,
			Gap:    uint32(4 + x>>56&7),
		}
	}
	return evs
}

// benchTableParallel drives apply/decide from GOMAXPROCS goroutines. The
// write fraction selects the mix: 1.0 is pure ingest (write-heavy), 0.05 is
// the lookup-dominated serving path (read-heavy).
func benchTableParallel(b *testing.B, apply func(string, trace.Event, uint64),
	decide func(string, trace.BranchID), writeFrac float64) {
	const nbranch = 256
	evs := benchTableEvents(1<<14, nbranch)
	writeEvery := int(1 / writeFrac)
	var worker atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		program := fmt.Sprintf("bench@%d", worker.Add(1))
		var instr uint64
		i := 0
		for pb.Next() {
			ev := evs[i&(len(evs)-1)]
			if writeFrac >= 1 || i%writeEvery == 0 {
				instr += uint64(ev.Gap)
				apply(program, ev, instr)
			} else {
				decide(program, ev.Branch)
			}
			i++
		}
	})
}

// benchShardedTable benchmarks the lock-striped table at a given stripe
// count, one event per ApplyBatchKind call; compare against
// BenchmarkTableBaseline* for the striping win.
func benchShardedTable(b *testing.B, shards int, writeFrac float64) {
	t := server.NewTable(core.DefaultParams().Scaled(10), shards)
	benchTableParallel(b,
		func(p string, ev trace.Event, instr uint64) {
			var dec [1]byte
			t.ApplyBatchKind(p, trace.KindBranch, []trace.Event{ev}, instr-uint64(ev.Gap), dec[:0])
		},
		func(p string, id trace.BranchID) { t.Decide(p, id) },
		writeFrac)
}

func BenchmarkTableWriteHeavy(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchShardedTable(b, shards, 1.0)
		})
	}
}

func BenchmarkTableReadHeavy(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchShardedTable(b, shards, 0.05)
		})
	}
}

func BenchmarkTableBaselineWriteHeavy(b *testing.B) {
	t := newSerialTable(core.DefaultParams().Scaled(10))
	benchTableParallel(b,
		func(p string, ev trace.Event, instr uint64) { t.Apply(p, ev, instr) },
		func(p string, id trace.BranchID) { t.Decide(p, id) },
		1.0)
}

func BenchmarkTableBaselineReadHeavy(b *testing.B) {
	t := newSerialTable(core.DefaultParams().Scaled(10))
	benchTableParallel(b,
		func(p string, ev trace.Event, instr uint64) { t.Apply(p, ev, instr) },
		func(p string, id trace.BranchID) { t.Decide(p, id) },
		0.05)
}

// BenchmarkTraceCodec measures trace encode+decode throughput.
func BenchmarkTraceCodec(b *testing.B) {
	spec := workload.MustBuild("eon", workload.InputEval, workload.Options{
		EventScale: workload.DefaultEventScale * 0.01,
	})
	events := trace.Collect(workload.NewGenerator(spec))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := trace.Capture(&buf, trace.NewSliceStream(events), uint64(len(events))); err != nil {
			b.Fatal(err)
		}
		r, err := trace.NewReader(&buf)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, ok := r.Next(); !ok {
				break
			}
			n++
		}
		if n != len(events) {
			b.Fatalf("decoded %d of %d", n, len(events))
		}
	}
	b.ReportMetric(float64(len(events)), "events/op")
}
