package server

import (
	"fmt"
	"io"

	"reactivespec/internal/wal"
)

// RecoveryResult summarizes what Recover rebuilt.
type RecoveryResult struct {
	// SnapshotRestored reports whether a snapshot was loaded.
	SnapshotRestored bool
	// WALSeq is the replay anchor: the restored snapshot's WAL sequence
	// number (0 when starting fresh).
	WALSeq uint64
	// ReplayedRecords and ReplayedEvents count what the WAL tail replay
	// applied on top of the snapshot.
	ReplayedRecords uint64
	ReplayedEvents  uint64
	// Truncation describes the torn tail the WAL cut off when it was
	// opened, if any.
	Truncation *wal.TailTruncation
}

// Recover rebuilds the server's state from disk: restore the latest
// snapshot, replay the write-ahead log from the snapshot's anchor, resume.
// Controllers are deterministic functions of their per-program event
// streams, so the result is byte-identical to the pre-crash state for every
// durably logged record (TestRecoverMatchesUncrashed pins this). Replay runs
// each record through the same commit step as live ingest, with nothing to
// log. Call it once, before serving.
func (s *Server) Recover() (RecoveryResult, error) {
	var res RecoveryResult
	restored, err := s.RestoreFromDisk()
	if err != nil {
		return res, err
	}
	res.SnapshotRestored = restored
	if s.cfg.WAL == nil {
		return res, nil
	}
	res.WALSeq = s.restoredWALSeq
	res.Truncation = s.cfg.WAL.Recovery()

	// Under fsync policies weaker than "always", a crash can shave WAL
	// records the latest durable snapshot had already absorbed: the
	// snapshot anchor then sits past the log's end. Jump the log's
	// numbering to the anchor so new records continue the sequence the
	// snapshot pinned instead of renumbering the lost range.
	if err := s.cfg.WAL.AlignSeq(res.WALSeq); err != nil {
		return res, fmt.Errorf("server: aligning wal to snapshot anchor: %w", err)
	}

	// The decoding reader walks each record's frame once: a CRC-valid
	// record whose frame does not decode fails the replay as a damaged
	// segment.
	r, err := wal.NewReader(wal.ReaderOptions{
		Dir:        s.cfg.WAL.Dir(),
		ParamsHash: s.cfg.WAL.ParamsHash(),
		From:       res.WALSeq,
	})
	if err != nil {
		return res, fmt.Errorf("server: opening wal for replay: %w", err)
	}
	defer r.Close()
	var discard []byte
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, fmt.Errorf("server: replaying wal record %d: %w", r.NextSeq(), err)
		}
		frames := [1]frameSpan{{pend: len(rec.Frame), events: len(rec.Events)}}
		// Without a log to append to, commit cannot fail.
		discard, _, _ = s.commit(nil, rec.Program, s.cursorFor(rec.Program), rec.Frame, rec.Events,
			frames[:], 0, nil, discard[:0])
		res.ReplayedRecords++
		res.ReplayedEvents += uint64(len(rec.Events))
	}
	s.ins.walReplayedRecords.Add(res.ReplayedRecords)
	s.ins.walReplayedEvents.Add(res.ReplayedEvents)
	if res.ReplayedRecords > 0 || res.Truncation != nil {
		s.logf("wal: replayed %d records (%d events) from sequence %d",
			res.ReplayedRecords, res.ReplayedEvents, res.WALSeq)
	}
	return res, nil
}
