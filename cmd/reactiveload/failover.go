// Failover verify mode: drive the primary, lose it mid-run (SIGKILL by pid
// or an external crash), promote the follower, and resume the stream against
// it from the replica's own cursor for each worker's program and kind —
// verifying every decision, before and after the crash, against an
// in-process mirror at absolute stream indices.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"reactivespec/internal/core"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
)

// FailoverReport is the report's failover block: what happened to the
// primary, and how the run resumed.
type FailoverReport struct {
	Promoted        bool   `json:"promoted"`
	KilledAtBatches uint64 `json:"killed_at_batches,omitempty"` // 0 when the primary died externally
	PromotedWalSeq  uint64 `json:"promoted_wal_seq"`
	WorkersResumed  int    `json:"workers_resumed"`
	ResentEvents    uint64 `json:"resent_events"`
	// AppliedUnacked counts events the primary applied and shipped but
	// whose response the crash cut: the replica's cursor is past the
	// worker's last ack, so they resume as applied without ever returning a
	// decision to verify. They are not part of the report's Events.
	AppliedUnacked uint64 `json:"applied_unacked"`
}

// failoverCtl coordinates the crash and the promotion across workers: it
// counts acked batches to decide when to SIGKILL the primary, and funnels
// every worker that loses the primary through exactly one promotion of the
// follower.
type failoverCtl struct {
	follower *server.Client
	pid      int
	after    uint64

	batches  atomic.Uint64
	killedAt atomic.Uint64
	killOnce sync.Once

	// debugURL is the primary's -debug-addr base URL; when set, killOnce
	// snapshots its "reactived" expvar block (replication state, follower
	// lag) immediately before the SIGKILL. Both fields are written inside
	// killOnce by a worker goroutine and read only after wg.Wait.
	debugURL  string
	debugVars json.RawMessage
	debugErr  error

	promoteOnce sync.Once
	promoteErr  error
	res         server.PromoteResult

	resumed        atomic.Uint64 // workers that failed over to the follower
	resent         atomic.Uint64 // events re-sent to the follower after promotion
	appliedUnacked atomic.Uint64 // events replicated past a worker's last ack
}

func newFailoverCtl(follower *server.Client, pid int, after uint64) *failoverCtl {
	return &failoverCtl{follower: follower, pid: pid, after: after}
}

// noteBatch records one primary-acked batch; crossing the
// -failover-after-batches threshold kills the primary, once, with no drain.
func (fc *failoverCtl) noteBatch() {
	n := fc.batches.Add(1)
	if fc.pid > 0 && fc.after > 0 && n >= fc.after {
		fc.killOnce.Do(func() {
			fc.killedAt.Store(n)
			if fc.debugURL != "" {
				// Capture the primary's replication expvars (follower lag
				// included) in its last instant alive, then kill it.
				fc.debugVars, fc.debugErr = fetchReplicationVars(fc.debugURL)
			}
			syscall.Kill(fc.pid, syscall.SIGKILL)
		})
	}
}

// fetchReplicationVars reads base's /debug/vars and returns the "reactived"
// block — the daemon's replication/WAL expvar snapshot. The short timeout
// keeps a wedged debug listener from postponing the kill indefinitely.
func fetchReplicationVars(base string) (json.RawMessage, error) {
	hc := &http.Client{Timeout: 2 * time.Second}
	resp, err := hc.Get(strings.TrimRight(base, "/") + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/vars: %s", resp.Status)
	}
	var all map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		return nil, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	block, ok := all["reactived"]
	if !ok {
		return nil, fmt.Errorf(`/debug/vars has no "reactived" block`)
	}
	return block, nil
}

// await promotes the follower exactly once, retrying transient failures;
// concurrent callers block until the one promotion resolves.
func (fc *failoverCtl) await(ctx context.Context) error {
	fc.promoteOnce.Do(func() {
		deadline := time.Now().Add(30 * time.Second)
		for {
			res, err := fc.follower.Promote(ctx)
			switch {
			case err == nil:
				fc.res = res
				return
			case errors.Is(err, server.ErrNotReplica):
				// Someone beat us to it (an operator's SIGUSR1, another
				// worker process); the follower is writable either way.
				fc.res = server.PromoteResult{Mode: "primary"}
				return
			case time.Now().After(deadline):
				fc.promoteErr = fmt.Errorf("promoting follower: %w", err)
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
	})
	return fc.promoteErr
}

// runFailoverWorker is runWorker for -failover. The event stream and its
// mirror decisions are materialized up front, so after the crash the worker
// can resume mid-stream — from whatever event count the promoted replica's
// cursor reports — and still verify each decision against its absolute index.
func runFailoverWorker(ctx context.Context, client *server.Client, ins *instruments, cfg workerConfig, fc *failoverCtl) workerResult {
	var res workerResult
	stream, err := buildEventStream(cfg)
	if err != nil {
		res.err = err
		return res
	}
	var events []trace.Event
	for {
		ev, ok := stream.Next()
		if !ok {
			break
		}
		events = append(events, ev)
	}
	want := make([]server.Decision, len(events))
	set, err := core.NewPolicySet(cfg.policy, cfg.params)
	if err != nil {
		res.err = err
		return res
	}
	var instr uint64
	for i, ev := range events {
		instr += uint64(ev.Gap)
		v, st, dir, live := set.OnEvent(ev.Branch, ev.Taken, instr)
		want[i] = server.Decision{Verdict: v, State: st, Dir: dir, Live: live}
	}

	sendBatch := func(cl *server.Client, off int) ([]server.Decision, error) {
		return postBatch(ctx, cl, ins, cfg, events[off:min(off+cfg.batch, len(events))])
	}
	// tallied is the high-water mark of counted events: after failover the
	// worker re-sends from the replica's cursor, which can sit below what the
	// primary already acked, and the overlap must not double-count.
	tallied := 0
	record := func(off int, ds []server.Decision) {
		res.batches++
		for i, d := range ds {
			if off+i < tallied {
				continue
			}
			res.events++
			res.verdicts[d.Verdict]++
			res.decisions[d.State]++
		}
		if off+len(ds) > tallied {
			tallied = off + len(ds)
		}
	}
	check := func(off int, ds []server.Decision) error {
		for i, d := range ds {
			if d != want[off+i] {
				return fmt.Errorf("decision mismatch at event %d of %s kind %s: daemon %v, in-process %v"+
					" (is the daemon running with -param-scale %d?)",
					off+i, cfg.program, cfg.kind, d, want[off+i], paramScaleHint(cfg.params))
			}
		}
		return nil
	}

	// Phase 1: drive the primary until the stream ends or the primary dies.
	// A transport error means the crash arrived; a mirror mismatch is a real
	// verification failure and fails the worker outright.
	off := 0
	var lostPrimary error
	for off < len(events) {
		ds, err := sendBatch(client, off)
		if err != nil {
			lostPrimary = err
			break
		}
		record(off, ds)
		if err := check(off, ds); err != nil {
			res.err = err
			return res
		}
		fc.noteBatch()
		off += len(ds)
	}
	if lostPrimary == nil {
		return res // the whole stream was acked before the crash
	}

	// Phase 2: promote (once, across workers), ask the replica how far it
	// got, and resume from there. Events between the replica's cursor and the
	// primary's last ack are re-sent; determinism makes their decisions
	// bitwise-identical, and check pins that.
	if err := fc.await(ctx); err != nil {
		res.err = fmt.Errorf("%w (primary lost: %v)", err, lostPrimary)
		return res
	}
	cur, err := fc.follower.Cursor(ctx, cfg.program, cfg.kind)
	if err != nil {
		res.err = fmt.Errorf("reading replica cursor: %w (primary lost: %v)", err, lostPrimary)
		return res
	}
	resume := int(cur.Events)
	if resume > len(events) {
		res.err = fmt.Errorf("replica cursor %d is beyond the %d-event stream", resume, len(events))
		return res
	}
	if resume > tallied {
		// The crash cut the response to a batch the primary had already
		// applied and shipped. The worker sends one batch at a time, so
		// at most that one batch can be ahead of the last ack.
		if resume-tallied > cfg.batch {
			res.err = fmt.Errorf("replica cursor %d is more than one %d-event batch past the last acked event %d of %s",
				resume, cfg.batch, tallied, cfg.program)
			return res
		}
		fc.appliedUnacked.Add(uint64(resume - tallied))
	}
	fc.resumed.Add(1)
	fc.resent.Add(uint64(len(events) - resume))
	for off = resume; off < len(events); {
		ds, err := sendBatch(fc.follower, off)
		if err != nil {
			res.err = fmt.Errorf("ingest on promoted replica at event %d: %w", off, err)
			return res
		}
		record(off, ds)
		if err := check(off, ds); err != nil {
			res.err = err
			return res
		}
		off += len(ds)
	}
	return res
}
