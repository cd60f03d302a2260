package experiments

import (
	"fmt"
	"io"

	"reactivespec/internal/core"
	"reactivespec/internal/obs"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
	"reactivespec/internal/workload"
)

// WALWindow selects a historical slice of a reactived write-ahead log for
// point-in-time replay: the branch records with sequence numbers in
// [From, To), restricted to one program.
type WALWindow struct {
	// Dir is the WAL segment directory (reactived's -wal-dir).
	Dir string
	// Program restricts the replay to one branch program's event stream.
	// Empty adopts the first branch record's program and then insists the
	// window is single-program — mixed windows need an explicit selection.
	// Records of other speculation kinds are skipped either way.
	Program string
	// From is the first sequence number to replay (0 = oldest retained).
	From uint64
	// To stops the replay before this sequence number (0 = end of log).
	To uint64
	// Params must be the controller parameters the daemon ran with;
	// ParamsHash is their digest, checked against every segment header so
	// a replay under different parameters fails instead of silently
	// diverging.
	Params     core.Params
	ParamsHash uint64
}

// TimelineFromWAL replays a window of a reactived write-ahead log through
// fresh per-branch controllers and reconstructs the same per-branch state
// timeline the live timeline experiment produces — the paper's
// classification views recovered from a production event log instead of a
// synthetic workload. Only branch records replay: the timeline is a
// per-branch view, and a value, memdep or tlspec record's kind-encoded key
// names no branch program.
//
// The replay mirrors the serving table's per-entry semantics exactly (gap
// accounting before the branch observation, per-entry controllers keyed by
// branch), so replaying from the head of the log reproduces the live
// trajectories byte for byte. A window that starts mid-log is a cold start:
// controllers begin in the monitor state and instruction counts are relative
// to the window's first event, so the result reads "how would this traffic
// classify on its own", not "what state was the table in".
//
// The replay is a point-in-time pass over a directory that may belong to a
// live daemon (a primary's — or, more usefully, a replica's — -wal-dir): the
// reader snapshots the segment list once at open, so records appended after
// the pass begins are not included, and a record the daemon is mid-way
// through writing when the pass reaches the tail reads as a clean truncation
// of the final segment, reported like any torn tail. Quiescence is not
// required. The one live-directory hazard is compaction (a snapshot on the
// daemon) deleting an unread segment mid-pass, which fails with an error
// naming the remedy: retry, or replay from a later -wal-from.
//
// The returned truncation is non-nil when the log ends in a torn tail (the
// replay covers the valid prefix); errors include parameter-hash mismatches,
// windows that pre-date compaction, and mid-log corruption.
func TimelineFromWAL(w WALWindow) (*TimelineResult, *wal.TailTruncation, error) {
	if w.To != 0 && w.To <= w.From {
		return nil, nil, fmt.Errorf("wal timeline: empty window [%d, %d)", w.From, w.To)
	}
	r, err := wal.NewReader(wal.ReaderOptions{Dir: w.Dir, ParamsHash: w.ParamsHash, From: w.From})
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()

	sink := obs.NewSink(0)
	ctls := make(map[trace.BranchID]*core.Controller)
	ctlFor := func(b trace.BranchID) *core.Controller {
		ctl := ctls[b]
		if ctl == nil {
			ctl = core.New(w.Params)
			// The table keys one controller per branch and reports
			// every observation as its branch 0; restore the real ID
			// on the way into the shared sink so the timeline is
			// per-branch again.
			ctl.OnTransition = func(tr core.Transition) {
				tr.Branch = b
				sink.Record(tr)
			}
			ctls[b] = ctl
		}
		return ctl
	}

	var (
		st       core.Stats
		instr    uint64
		program  = w.Program
		detected = program == ""
		records  uint64
	)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("wal timeline: reading record %d: %w", r.NextSeq(), err)
		}
		if w.To != 0 && rec.Seq >= w.To {
			break
		}
		kind, name := trace.SplitKindProgram(rec.Program)
		if kind != trace.KindBranch {
			continue
		}
		if program == "" {
			program = name
		}
		if name != program {
			if detected {
				return nil, nil, fmt.Errorf(
					"wal timeline: window holds both %q and %q; select one with the program option",
					program, name)
			}
			continue
		}
		records++
		for _, ev := range rec.Events {
			gap := uint64(ev.Gap)
			instr += gap
			st.Instrs += gap
			st.Count(ctlFor(ev.Branch).OnBranch(0, ev.Taken, instr))
		}
	}
	if records == 0 {
		if w.Program != "" {
			return nil, nil, fmt.Errorf("wal timeline: no records for program %q in window [%d, %d) "+
				"(the timeline replays branch records only)", w.Program, w.From, w.To)
		}
		return nil, nil, fmt.Errorf("wal timeline: no branch records in window [%d, %d) "+
			"(the timeline replays branch records only)", w.From, w.To)
	}
	return &TimelineResult{
		Bench:       "wal:" + program,
		Input:       workload.InputEval,
		Stats:       st,
		Transitions: sink.Total(),
		Dropped:     sink.Dropped(),
		Branches:    obs.BuildTimeline(sink.Records(), instr),
	}, r.Truncation(), nil
}
