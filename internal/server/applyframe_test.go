package server

import (
	"fmt"
	"reflect"
	"testing"

	"reactivespec/internal/trace"
)

// applyAllFramed drives events through the table with ApplyFrame in chunks of
// batch, encoding each chunk into a wire frame payload first, and returns the
// encoded decision sequence.
func applyAllFramed(tb testing.TB, t *Table, program string, evs []trace.Event, instr *uint64, batch int) []byte {
	out := make([]byte, 0, len(evs))
	var payload []byte
	for off := 0; off < len(evs); off += batch {
		end := off + batch
		if end > len(evs) {
			end = len(evs)
		}
		payload = trace.EncodeFrameAppend(payload[:0], evs[off:end])
		if _, err := trace.ValidateFrame(payload); err != nil {
			tb.Fatalf("encoded frame failed validation: %v", err)
		}
		out, *instr = t.ApplyFrame(program, payload, *instr, out)
	}
	return out
}

// TestApplyFrameMatchesApplyBatch is the zero-copy apply equivalence pin:
// across shard counts, seeds, and frame sizes, decoding-while-applying a wire
// payload must produce the byte-identical decision stream, final instruction
// count, and shard metrics as ApplyBatchKind over the decoded events.
func TestApplyFrameMatchesApplyBatch(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		for _, seed := range []uint64{1, 7, 42} {
			for _, batch := range []int{1, 13, 1024, 30_000} {
				t.Run(fmt.Sprintf("shards=%d/seed=%d/batch=%d", shards, seed, batch), func(t *testing.T) {
					evs := synthEvents(30_000, seed)

					batched := NewTable(testParams(), shards)
					var instrA uint64
					want := applyAllBatched(batched, "prog", evs, &instrA, batch)

					framed := NewTable(testParams(), shards)
					var instrB uint64
					got := applyAllFramed(t, framed, "prog", evs, &instrB, batch)

					if instrA != instrB {
						t.Fatalf("final instruction count %d, want %d", instrB, instrA)
					}
					if string(got) != string(want) {
						t.Fatalf("framed decision stream differs from batched (lengths %d, %d)",
							len(got), len(want))
					}
					if gm, wm := framed.Metrics(), batched.Metrics(); !reflect.DeepEqual(gm, wm) {
						t.Fatalf("shard metrics diverge:\nframed:  %+v\nbatched: %+v", gm, wm)
					}
				})
			}
		}
	}
}

// TestApplyFrameEmpty covers the degenerate frames: zero events, and a
// payload applied into a pre-populated dst.
func TestApplyFrameEmpty(t *testing.T) {
	tab := NewTable(testParams(), 4)
	empty := trace.EncodeFrameAppend(nil, nil)
	dst, instr := tab.ApplyFrame("p", empty, 17, nil)
	if len(dst) != 0 || instr != 17 {
		t.Fatalf("empty frame: %d decisions, instr %d", len(dst), instr)
	}
	one := trace.EncodeFrameAppend(nil, []trace.Event{{Branch: 1, Taken: true, Gap: 5}})
	dst = append(dst, 0xEE)
	dst, instr = tab.ApplyFrame("p", one, instr, dst)
	if len(dst) != 2 || dst[0] != 0xEE || instr != 22 {
		t.Fatalf("one-event frame: dst %v, instr %d", dst, instr)
	}
}

// TestApplyFrameSteadyStateAllocs pins the zero-copy claim at the apply
// layer: once the table entries and dst exist, applying a frame allocates
// nothing.
func TestApplyFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds make sync.Pool drop items on purpose; the zero-alloc pin only holds in a normal build")
	}
	evs := synthEvents(4096, 9)
	payload := trace.EncodeFrameAppend(nil, evs)
	tab := NewTable(testParams(), 8)
	dst := make([]byte, 0, len(evs))
	var instr uint64
	// Warm up: create every (program, branch) entry.
	dst, instr = tab.ApplyFrame("p", payload, instr, dst[:0])
	if len(dst) != len(evs) {
		t.Fatalf("warmup applied %d of %d events", len(dst), len(evs))
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst, instr = tab.ApplyFrame("p", payload, instr, dst[:0])
	})
	if allocs > 0 {
		t.Fatalf("ApplyFrame allocated %.1f objects per frame in steady state; want 0", allocs)
	}
}
