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

// TimelineFromWAL replays a window of a reactived write-ahead log through a
// fresh controller and reconstructs the same per-branch state timeline the
// live timeline experiment produces — the paper's classification views
// recovered from a production event log instead of a synthetic workload.
// Only branch records replay: the timeline is a per-branch view, and a
// value, memdep or tlspec record's kind-encoded key names no branch program.
//
// The replay mirrors the serving table's per-entry semantics exactly (gap
// accounting before the branch observation, one unit per branch), so
// replaying from the head of the log reproduces the live trajectories byte
// for byte. A window that starts mid-log is a cold start: units begin in the
// monitor state and instruction counts are relative to the window's first
// event, so the result reads "how would this traffic classify on its own",
// not "what state was the table in".
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

	ctl := core.New(w.Params)
	sink := obs.NewSink(0)
	sink.Attach(ctl)
	// The controller stores units densely by ID, but WAL branch IDs are
	// whatever the daemon's clients sent (any uint32), so the replay steps
	// unit i for the i-th distinct branch it meets and names the real
	// branch again on the sink's records.
	index := make(map[trace.BranchID]trace.BranchID)
	var ids []trace.BranchID

	var (
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
			u, ok := index[ev.Branch]
			if !ok {
				u = trace.BranchID(len(ids))
				index[ev.Branch] = u
				ids = append(ids, ev.Branch)
			}
			instr += uint64(ev.Gap)
			ctl.AddInstrs(uint64(ev.Gap))
			ctl.OnBranch(u, ev.Taken, instr)
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
	trs := sink.Records()
	for i := range trs {
		trs[i].Branch = ids[trs[i].Branch]
	}
	return &TimelineResult{
		Bench:       "wal:" + program,
		Input:       workload.InputEval,
		Stats:       ctl.Stats(),
		Transitions: sink.Total(),
		Dropped:     sink.Dropped(),
		Branches:    obs.BuildTimeline(trs, instr),
	}, r.Truncation(), nil
}
