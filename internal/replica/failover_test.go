package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"reactivespec/internal/server"
	"reactivespec/internal/trace"
)

// TestFailoverBitwiseIdentical is the subsystem's end-to-end claim: kill the
// primary mid-run, promote the follower, redirect the client, and the
// surviving decision stream is bitwise-identical to an uncrashed in-process
// control. The client resumes from the promoted replica's /v1/cursor event
// count, exactly as reactiveload -failover does.
func TestFailoverBitwiseIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, seed := range []uint64{3, 11} {
			t.Run(fmt.Sprintf("shards=%d,seed=%d", shards, seed), func(t *testing.T) {
				runFailover(t, shards, seed)
			})
		}
	}
}

func runFailover(t *testing.T, shards int, seed uint64) {
	const (
		batchEvents = 250
		batches     = 40
		killAfter   = 25 // batches ingested into the primary before the crash
	)
	events := synthEvents(batches*batchEvents, seed)
	const program = "gzip"

	// The uncrashed control: one in-process table sees the whole stream.
	tab := server.NewTable(testParams(), 1)
	control, _ := tab.ApplyBatchKind(program, trace.KindBranch, events, 0, nil)

	p := startPrimary(t, shards)
	r := startReplica(t, shards, p.ln.Addr().String(), 8)
	ctx := context.Background()

	// Phase 1: drive the primary. Every acked decision is recorded at its
	// absolute stream index.
	got := make([]byte, len(events))
	idx := 0
	for b := 0; b < killAfter; b++ {
		ds, err := p.client.IngestKind(ctx, program, trace.KindBranch, events[idx:idx+batchEvents])
		if err != nil {
			t.Fatalf("primary ingest batch %d: %v", b, err)
		}
		for i, d := range ds {
			got[idx+i] = d.Encode()
		}
		idx += batchEvents
	}

	// The crash: HTTP front end, shipper, and replication listener all die
	// at once, with no drain. The follower holds whatever it holds.
	p.kill()

	// Failover: promote the replica, learn the resume point, redirect.
	res, err := r.client.Promote(ctx)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if res.Mode != "primary" {
		t.Fatalf("promote result %+v", res)
	}
	if _, err := r.client.Promote(ctx); !errors.Is(err, server.ErrNotReplica) {
		t.Fatalf("second promote: %v, want ErrNotReplica", err)
	}
	cur, err := r.client.Cursor(ctx, program, trace.KindBranch)
	if err != nil {
		t.Fatalf("cursor: %v", err)
	}
	resume := int(cur.Events)
	if resume > idx {
		t.Fatalf("replica claims %d events, primary only acked %d", resume, idx)
	}
	if resume%batchEvents != 0 {
		t.Fatalf("resume point %d is not at a record boundary", resume)
	}

	// Phase 2: re-send everything the replica does not hold, from the
	// cursor's resume point — including acked-but-unreplicated primary
	// batches, which the client knows only the replica's cursor can
	// adjudicate.
	for off := resume; off < len(events); off += batchEvents {
		ds, err := r.client.IngestKind(ctx, program, trace.KindBranch, events[off:off+batchEvents])
		if err != nil {
			t.Fatalf("replica ingest at offset %d: %v", off, err)
		}
		for i, d := range ds {
			got[off+i] = d.Encode()
		}
	}

	// Every decision — primary-acked prefix and post-failover tail — is
	// bitwise-identical to the uncrashed control.
	if !bytes.Equal(got, control) {
		for i := range got {
			if got[i] != control[i] {
				t.Fatalf("decision %d diverges after failover (resume point %d): got %#x want %#x",
					i, resume, got[i], control[i])
			}
		}
	}
}
