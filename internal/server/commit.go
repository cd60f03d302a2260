package server

import (
	"time"

	"reactivespec/internal/obs"
	"reactivespec/internal/wal"
)

// stage is one step of the ingest pipeline. POST batches and stream frames
// run the same five, in this order; one stageClock times them and feeds both
// the reactived_ingest_* histograms and the batch span's children.
type stage int

const (
	stageDecode    stage = iota // read and validate the frames, no locks held
	stageWALAppend              // take the program's cursor lock, append to the log
	stageFsync                  // Commit: make the appended records durable
	stageApply                  // train the table and advance the cursor
	stageRespond                // encode and write the decisions
	numStages
)

// stageClock times one batch through the pipeline. The stages are
// contiguous — each lap ends the current stage at now and the next one
// starts there — so the five children cover the batch root exactly. A nil
// clock times nothing (recovery replay).
type stageClock struct {
	start time.Time
	ends  [numStages]time.Time
}

// lap ends stage st now.
func (c *stageClock) lap(st stage) {
	if c != nil {
		c.ends[st] = time.Now()
	}
}

func (c *stageClock) begin(st stage) time.Time {
	if st == 0 {
		return c.start
	}
	return c.ends[st-1]
}

func (c *stageClock) dur(st stage) time.Duration { return c.ends[st].Sub(c.begin(st)) }

// commit is the one log→apply step behind every way events reach the table:
// POST ingest, stream frames, replicated records and recovery replay. Under
// applyMu's read side (fencing snapshot capture) and the program's cursor
// lock, it appends every applied frame of payload to wlog, commits once, then
// applies the frames in order and advances the cursor — so per program, log
// order is apply order and replay reproduces the same decisions. Rejected
// frames (errMsg set) are skipped. A nil wlog logs nothing: a server without
// a WAL, or replay of records that came from the log. On a log failure
// nothing is applied.
//
// commit appends one decision byte per event to dst, records each frame's
// decision span in frames, and returns the extended slice and the first
// sequence number logged.
func (s *Server) commit(wlog *wal.Log, key string, cur *cursor, payload []byte, frames []frameSpan,
	traceID uint64, clk *stageClock, dst []byte) ([]byte, uint64, error) {
	s.applyMu.RLock()
	defer s.applyMu.RUnlock()
	cur.mu.Lock()
	defer cur.mu.Unlock()
	var (
		err      error
		firstSeq uint64
		logged   bool
	)
	if wlog != nil {
		for _, f := range frames {
			if f.errMsg != "" {
				continue
			}
			var seq uint64
			if seq, err = wlog.AppendPayload(key, payload[f.pstart:f.pend]); err != nil {
				break
			}
			if !logged {
				firstSeq, logged = seq, true
			}
			// The WAL stores no trace context; the seq→trace side table is
			// how the replication shipper re-attaches the trace when it
			// reads this record back off the log.
			s.cfg.Trace.NoteSeq(seq, traceID)
		}
	}
	clk.lap(stageWALAppend)
	if wlog != nil && err == nil {
		err = wlog.Commit()
	}
	clk.lap(stageFsync)
	if err != nil {
		// A client that cannot durably log must not train the live table,
		// or recovery would diverge from the state it acknowledged. (Frames
		// appended before the failure may survive in the log; replaying
		// unacknowledged events is safe — the client saw an error.)
		s.ins.walAppendErrors.Inc()
		return dst, firstSeq, err
	}
	for i := range frames {
		f := &frames[i]
		if f.errMsg != "" {
			continue
		}
		f.dstart = len(dst)
		dst, cur.instr = s.table.ApplyFrame(key, payload[f.pstart:f.pend], cur.instr, dst)
		f.dend = len(dst)
		cur.events += uint64(f.events)
	}
	clk.lap(stageApply)
	return dst, firstSeq, nil
}

// finishBatch feeds a batch's finished clock into the ingest histograms and,
// when the batch is traced, records its root span and the five stage
// children. program is the plain name the client sent, never the
// kind-encoded table key.
func (s *Server) finishBatch(clk *stageClock, traceID uint64, program string, events int, seq uint64) {
	end := clk.ends[stageRespond]
	s.ins.batches.Inc()
	s.ins.batchLat.Observe(end.Sub(clk.start).Seconds())
	s.ins.decodeLat.Observe(clk.dur(stageDecode).Seconds())
	s.ins.applyLat.Observe(clk.dur(stageApply).Seconds())
	s.ins.respondLat.Observe(clk.dur(stageRespond).Seconds())
	s.ins.batchEvents.Observe(float64(events))
	if traceID == 0 {
		return
	}
	tr := s.cfg.Trace
	root := tr.SpanID()
	tr.Record(obs.Span{Trace: traceID, Span: root, Stage: "batch", Program: program,
		Events: events, Seq: seq, Start: clk.start.UnixNano(), Dur: int64(end.Sub(clk.start))})
	stageSpan := func(st stage, name string, events int, seq uint64) {
		tr.RecordStage(traceID, root, name, program, events, seq, clk.begin(st), clk.dur(st))
	}
	stageSpan(stageDecode, "decode", events, 0)
	stageSpan(stageWALAppend, "wal_append", events, seq)
	stageSpan(stageFsync, "fsync", 0, seq)
	stageSpan(stageApply, "apply", events, 0)
	stageSpan(stageRespond, "respond", 0, 0)
}
