// Failover verify mode: drive the primary, lose it mid-run (SIGKILL by pid
// or an external crash), promote the follower, and resume against it from
// the replica's own cursor for each worker's program and kind by replaying
// the worker's seeded source to that cursor — verifying every decision,
// before and after the crash, against the in-process mirror at absolute
// stream indices.
package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"reactivespec/internal/server"
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

	// primary, when set, is scraped for its replication samples (follower
	// lag included) immediately before the SIGKILL. killSamples and
	// killErr are written inside killOnce by a worker goroutine and read
	// only after wg.Wait.
	primary     *server.Client
	killSamples []string
	killErr     error

	promoteOnce sync.Once
	promoteErr  error
	res         server.PromoteResult

	resumed        atomic.Uint64 // workers that failed over to the follower
	resent         atomic.Uint64 // events sent to the follower after the resume
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
			if fc.primary != nil {
				// Capture the primary's replication state in its last
				// instant alive, then kill it.
				fc.killSamples, fc.killErr = replicationSamples(fc.primary)
			}
			syscall.Kill(fc.pid, syscall.SIGKILL)
		})
	}
}

// replicationSamples scrapes the primary's /metrics and returns its
// reactived_replication_* sample lines (sessions, shipped totals,
// per-follower lag). The short timeout keeps a wedged primary from
// postponing the kill indefinitely.
func replicationSamples(primary *server.Client) ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	text, err := primary.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	var samples []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "reactived_replication_") {
			samples = append(samples, line)
		}
	}
	return samples, nil
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

// runFailoverWorker is runWorker for -failover: the same POST loop, first
// against the primary and, once a POST fails, against the promoted follower.
// The resume rebuilds the worker's source from its config and skips it to the
// replica's cursor, so the re-sent overlap and the tail verify at their
// absolute stream indices without holding the stream or its decisions.
func runFailoverWorker(ctx context.Context, client *server.Client, ins *instruments, cfg workerConfig, fc *failoverCtl) workerResult {
	var res workerResult
	src, err := newSource(cfg, &res)
	if err != nil {
		res.err = err
		return res
	}
	// Phase 1: drive the primary until the stream ends or the primary dies.
	// A transport error means the crash arrived; a mirror mismatch is a real
	// verification failure and fails the worker outright.
	lostPrimary, err := src.post(ctx, client, ins, fc.noteBatch)
	if err != nil || lostPrimary == nil {
		res.err = err // nil when the whole stream was acked before the crash
		return res
	}

	// Phase 2: promote (once, across workers), ask the replica how far it
	// got, and resume from there. Events between the replica's cursor and the
	// primary's last ack are re-sent; determinism makes their decisions
	// bitwise-identical, and accept pins that.
	if err := fc.await(ctx); err != nil {
		res.err = fmt.Errorf("%w (primary lost: %v)", err, lostPrimary)
		return res
	}
	cur, err := fc.follower.Cursor(ctx, cfg.program, cfg.kind)
	if err != nil {
		res.err = fmt.Errorf("reading replica cursor: %w (primary lost: %v)", err, lostPrimary)
		return res
	}
	resume := cur.Events
	if src, err = newSource(cfg, &res); err == nil {
		err = src.skip(resume)
	}
	if err != nil {
		res.err = fmt.Errorf("resuming at replica cursor %d: %w", resume, err)
		return res
	}
	if resume > res.acked {
		// The crash cut the response to a batch the primary had already
		// applied and shipped. The worker sends one batch at a time, so
		// at most that one batch can be ahead of the last ack.
		if resume-res.acked > uint64(cfg.batch) {
			res.err = fmt.Errorf("replica cursor %d is more than one %d-event batch past the last acked event %d of %s",
				resume, cfg.batch, res.acked, cfg.program)
			return res
		}
		fc.appliedUnacked.Add(resume - res.acked)
	}
	fc.resumed.Add(1)
	lost, err := src.post(ctx, fc.follower, ins, nil)
	if lost != nil {
		err = fmt.Errorf("ingest on promoted replica (resumed at event %d): %w", resume, lost)
	}
	res.err = err
	fc.resent.Add(src.off - resume)
	return res
}
