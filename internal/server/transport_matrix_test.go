package server

import (
	"bufio"
	"context"
	"fmt"
	"testing"

	"reactivespec/internal/trace"
)

// TestTransportDecisionModeMatrix is the cross-transport equivalence pin:
// per-batch POST and the raw TCP stream (run-length decision frames, with the
// per-frame plain fallback) must produce byte-identical decisions for the
// same event sequence, across seeds and windows. Run it with -race to cover
// the concurrency claim too.
func TestTransportDecisionModeMatrix(t *testing.T) {
	const batch = 900
	for _, seed := range []uint64{3, 21} {
		evs := synthEvents(12_000, seed)
		// The POST reference for this seed.
		_, postC := newTestServer(t, Config{Shards: 8})
		var want []Decision
		for _, b := range streamBatches(evs, batch) {
			ds, err := postC.IngestKind(context.Background(), "gzip", trace.KindBranch, b)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ds...)
		}

		for _, window := range []int{1, 16} {
			t.Run(fmt.Sprintf("seed=%d/tcp-stream/rle/w=%d", seed, window), func(t *testing.T) {
				s, _ := newTestServer(t, Config{Shards: 8})
				st, err := openStream(t, s, "gzip", WithStreamWindow(window))
				if err != nil {
					t.Fatal(err)
				}
				got := runSession(t, st, streamBatches(evs, batch))
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%d decisions, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("decision %d = %v, want %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// readFull is io.ReadFull over the session reader, kept local so byte-exact
// comparisons read raw wire without the frame parser's help.
func readFull(br *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := br.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
