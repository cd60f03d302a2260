package server

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"reactivespec/internal/trace"
)

// applyAllBatched drives events through the table as branch-kind batches of
// batch events, returning the encoded decision sequence.
func applyAllBatched(t *Table, program string, evs []trace.Event, instr *uint64, batch int) []byte {
	out := make([]byte, 0, len(evs))
	for off := 0; off < len(evs); off += batch {
		end := off + batch
		if end > len(evs) {
			end = len(evs)
		}
		out, *instr = t.ApplyBatchKind(program, trace.KindBranch, evs[off:end], *instr, out)
	}
	return out
}

// runHeavyEvents is a trace of long single-branch runs over a few branches:
// 500 events of each branch in turn, so most consecutive events share a
// branch.
func runHeavyEvents(n int) []trace.Event {
	evs := make([]trace.Event, 0, n)
	for i := 0; len(evs) < n; i++ {
		b := trace.BranchID(i % 7)
		for j := 0; j < 500 && len(evs) < n; j++ {
			evs = append(evs, trace.Event{Branch: b, Taken: j%3 != 0, Gap: uint32(1 + j%5)})
		}
	}
	return evs
}

// TestApplyBatchMatchesApply is the batching equivalence pin: across shard
// counts, branch-hopping and run-heavy traces, and batch sizes, the batched
// path must produce the byte-identical decision stream and identical shard
// metrics (including transition counts and entry counts) as applying each
// event on its own.
func TestApplyBatchMatchesApply(t *testing.T) {
	type input struct {
		name string
		evs  []trace.Event
	}
	var inputs []input
	for _, seed := range []uint64{1, 7, 42} {
		inputs = append(inputs, input{fmt.Sprintf("seed=%d", seed), synthEvents(30_000, seed)})
	}
	inputs = append(inputs, input{"runs", runHeavyEvents(20_000)})
	for _, shards := range []int{1, 2, 4, 16} {
		for _, in := range inputs {
			for _, batch := range []int{1, 13, 1024, 60_000} {
				t.Run(fmt.Sprintf("shards=%d/%s/batch=%d", shards, in.name, batch), func(t *testing.T) {
					evs := in.evs

					perEvent := NewTable(testParams(), shards)
					var instrA uint64
					want := applyAll(perEvent, "prog", evs, &instrA)

					batched := NewTable(testParams(), shards)
					var instrB uint64
					got := applyAllBatched(batched, "prog", evs, &instrB, batch)

					if instrA != instrB {
						t.Fatalf("final instruction count %d, want %d", instrB, instrA)
					}
					if len(got) != len(want) {
						t.Fatalf("%d decisions, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							gd, _ := DecodeDecision(got[i])
							wd, _ := DecodeDecision(want[i])
							t.Fatalf("event %d (branch %d): batched %v, per-event %v",
								i, evs[i].Branch, gd, wd)
						}
					}
					if gm, wm := batched.Metrics(), perEvent.Metrics(); !reflect.DeepEqual(gm, wm) {
						t.Fatalf("shard metrics diverge:\nbatched:   %+v\nper-event: %+v", gm, wm)
					}
				})
			}
		}
	}
}

// TestApplyBatchTightLoop: long runs of a single branch must match the
// per-event reference exactly.
func TestApplyBatchTightLoop(t *testing.T) {
	evs := make([]trace.Event, 0, 40_000)
	state := uint64(3)
	for len(evs) < cap(evs) {
		state = state*6364136223846793005 + 1442695040888963407
		id := trace.BranchID(state >> 58) // few distinct branches
		burst := 16 + int(state>>32&127)  // long single-branch runs
		for k := 0; k < burst && len(evs) < cap(evs); k++ {
			evs = append(evs, trace.Event{Branch: id, Taken: state>>(k&31)&1 == 0, Gap: uint32(1 + k&7)})
		}
	}

	perEvent := NewTable(testParams(), 4)
	var instrA uint64
	want := applyAll(perEvent, "loop", evs, &instrA)

	batched := NewTable(testParams(), 4)
	var instrB uint64
	got := applyAllBatched(batched, "loop", evs, &instrB, 4096)

	if string(got) != string(want) {
		t.Fatal("tight-loop decision stream differs between batched and per-event paths")
	}
	if !reflect.DeepEqual(batched.Metrics(), perEvent.Metrics()) {
		t.Fatal("tight-loop shard metrics differ between batched and per-event paths")
	}
}

// TestApplyBatchEmpty checks the trivial cases: no events, and a batch that
// only advances dst.
func TestApplyBatchEmpty(t *testing.T) {
	tab := NewTable(testParams(), 4)
	dst, instr := tab.ApplyBatchKind("p", trace.KindBranch, nil, 17, nil)
	if len(dst) != 0 || instr != 17 {
		t.Fatalf("empty batch: %d decisions, instr %d", len(dst), instr)
	}
	dst, instr = tab.ApplyBatchKind("p", trace.KindBranch, []trace.Event{{Branch: 1, Taken: true, Gap: 5}}, instr, dst)
	if len(dst) != 1 || instr != 22 {
		t.Fatalf("one-event batch: %d decisions, instr %d", len(dst), instr)
	}
}

// TestApplyBatchConcurrentWithReaders drives concurrent batched applies for
// distinct programs while Decide and Metrics readers spin (the race detector
// validates the RWMutex discipline), then asserts every program's decision
// stream and the aggregate counters match a serial replay.
func TestApplyBatchConcurrentWithReaders(t *testing.T) {
	const (
		programs = 8
		events   = 20_000
		batch    = 777
	)
	tab := NewTable(testParams(), 8)

	var done atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; !done.Load(); i++ {
				program := fmt.Sprintf("prog-%d", i%programs)
				tab.Decide(program, trace.BranchID(i%24))
				if i%16 == 0 {
					tab.Metrics()
				}
			}
		}(r)
	}

	streams := make([][]trace.Event, programs)
	decisions := make([][]byte, programs)
	var writers sync.WaitGroup
	for p := 0; p < programs; p++ {
		streams[p] = synthEvents(events, uint64(p)*1315423911+5)
		writers.Add(1)
		go func(p int) {
			defer writers.Done()
			var instr uint64
			decisions[p] = applyAllBatched(tab, fmt.Sprintf("prog-%d", p), streams[p], &instr, batch)
		}(p)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()

	// Serial replay: a fresh table fed the same per-program streams must
	// produce the same decision bytes and the same aggregate totals.
	serial := NewTable(testParams(), 8)
	var serialTotal, concurrentTotal ShardMetrics
	for p := 0; p < programs; p++ {
		var instr uint64
		want := applyAll(serial, fmt.Sprintf("prog-%d", p), streams[p], &instr)
		if string(decisions[p]) != string(want) {
			t.Fatalf("program %d: concurrent batched decisions diverge from serial replay", p)
		}
	}
	for _, m := range serial.Metrics() {
		serialTotal.Add(m)
	}
	for _, m := range tab.Metrics() {
		concurrentTotal.Add(m)
	}
	if serialTotal != concurrentTotal {
		t.Fatalf("aggregate metrics: concurrent %+v, serial %+v", concurrentTotal, serialTotal)
	}
	if concurrentTotal.Events != programs*events {
		t.Fatalf("total events %d, want %d", concurrentTotal.Events, programs*events)
	}
}

// TestScratchPoolsDropOversizedBatches pins the pool cap: after a frame
// larger than maxPooledEvents goes through ApplyFrame, its event pool hands
// back no buffer above the cap, so one huge POST cannot pin its scratch for
// the life of the process. (Race builds drop pool puts at random, which can
// only leave the pool emptier.)
func TestScratchPoolsDropOversizedBatches(t *testing.T) {
	evs := synthEvents(maxPooledEvents+1, 5)
	tab := NewTable(testParams(), 4)
	tab.ApplyFrame("p", trace.EncodeFrameAppend(nil, evs), 0, nil)
	for i := 0; i < 8; i++ {
		if evp := frameEventsPool.Get().(*[]trace.Event); cap(*evp) > maxPooledEvents {
			t.Fatalf("frame events pool returned a %d-event buffer; cap is %d", cap(*evp), maxPooledEvents)
		}
	}
}

// TestApplyShardedMatchesApply pins the single pass itself, calling
// applyEvents directly with each whole trace as one batch: for a
// branch-hopping trace (a seed the batching pin does not use) and the
// run-heavy trace alike, it must produce the byte-identical decision
// stream, final instruction count, and shard metrics as applying each
// event on its own.
func TestApplyShardedMatchesApply(t *testing.T) {
	traces := map[string][]trace.Event{
		"hopping": synthEvents(20_000, 3),
		"runs":    runHeavyEvents(20_000),
	}
	for name, evs := range traces {
		for _, shards := range []int{2, 16} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				perEvent := NewTable(testParams(), shards)
				var instrA uint64
				want := applyAll(perEvent, "prog", evs, &instrA)

				sharded := NewTable(testParams(), shards)
				got, instrB := sharded.applyEvents("prog", evs, 0, nil)

				if instrA != instrB {
					t.Fatalf("final instruction count %d, want %d", instrB, instrA)
				}
				if len(got) != len(want) {
					t.Fatalf("%d decisions, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						gd, _ := DecodeDecision(got[i])
						wd, _ := DecodeDecision(want[i])
						t.Fatalf("event %d (branch %d): sharded %v, per-event %v",
							i, evs[i].Branch, gd, wd)
					}
				}
				if gm, wm := sharded.Metrics(), perEvent.Metrics(); !reflect.DeepEqual(gm, wm) {
					t.Fatalf("shard metrics diverge:\nsharded:   %+v\nper-event: %+v", gm, wm)
				}
			})
		}
	}
}
