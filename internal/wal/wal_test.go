package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"reactivespec/internal/trace"
)

const testHash = 0xfeedc0dedeadbeef

func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		Dir:        t.TempDir(),
		ParamsHash: testHash,
		Policy:     SyncAlways,
	}
}

// synthEvents builds a small deterministic batch keyed by seed.
func synthEvents(n int, seed uint64) []trace.Event {
	events := make([]trace.Event, n)
	state := seed*2862933555777941757 + 3037000493
	for i := range events {
		state = state*2862933555777941757 + 3037000493
		events[i] = trace.Event{
			Branch: trace.BranchID(state % 512),
			Taken:  state&(1<<20) != 0,
			Gap:    uint32(state % 97),
		}
	}
	return events
}

// appendBatches appends n batches for program and returns them.
func appendBatches(t *testing.T, l *Log, program string, n int, seed uint64) [][]trace.Event {
	t.Helper()
	batches := make([][]trace.Event, n)
	for i := range batches {
		batches[i] = synthEvents(16+i, seed+uint64(i))
		if _, err := l.AppendPayload(program, trace.EncodeFrameAppend(nil, batches[i])); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	return batches
}

// readAll replays every record at or past from.
func readAll(t *testing.T, dir string, from uint64) ([]Record, *TailTruncation) {
	t.Helper()
	r, err := NewReader(ReaderOptions{Dir: dir, ParamsHash: testHash, From: from})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	defer r.Close()
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, r.Truncation()
		}
		if err != nil {
			t.Fatalf("Next after %d records: %v", len(out), err)
		}
		cp := make([]trace.Event, len(rec.Events))
		copy(cp, rec.Events)
		rec.Events = cp
		out = append(out, rec)
	}
}

func TestRoundtrip(t *testing.T) {
	opts := testOptions(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := appendBatches(t, l, "gzip", 5, 1)
	more := appendBatches(t, l, "vpr", 3, 100)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, trunc := readAll(t, opts.Dir, 0)
	if trunc != nil {
		t.Fatalf("unexpected truncation: %v", trunc)
	}
	if len(recs) != 8 {
		t.Fatalf("replayed %d records, want 8", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i) {
			t.Errorf("record %d has seq %d", i, rec.Seq)
		}
		wantProg, wantEvents := "gzip", want
		idx := i
		if i >= 5 {
			wantProg, wantEvents = "vpr", more
			idx = i - 5
		}
		if rec.Program != wantProg {
			t.Errorf("record %d program %q, want %q", i, rec.Program, wantProg)
		}
		if !reflect.DeepEqual(rec.Events, wantEvents[idx]) {
			t.Errorf("record %d events differ", i)
		}
	}
}

func TestReopenContinues(t *testing.T) {
	opts := testOptions(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendBatches(t, l, "gzip", 3, 1)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l, err = Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := l.NextSeq(); got != 3 {
		t.Fatalf("NextSeq after reopen = %d, want 3", got)
	}
	appendBatches(t, l, "gzip", 2, 50)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, _ := readAll(t, opts.Dir, 0)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records after reopen, want 5", len(recs))
	}
	if recs[4].Seq != 4 {
		t.Fatalf("last seq %d, want 4", recs[4].Seq)
	}
}

func TestRotationAndFrom(t *testing.T) {
	opts := testOptions(t)
	opts.SegmentBytes = 256 // force rotation every couple of records
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendBatches(t, l, "mcf", 20, 7)
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected >=3 segments after rotation, got %d", st.Segments)
	}
	if st.NextSeq != 20 {
		t.Fatalf("NextSeq = %d, want 20", st.NextSeq)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, _ := readAll(t, opts.Dir, 0)
	if len(recs) != 20 {
		t.Fatalf("replayed %d records, want 20", len(recs))
	}
	// A mid-log From must seek to the covering segment and skip precisely.
	recs, _ = readAll(t, opts.Dir, 13)
	if len(recs) != 7 || recs[0].Seq != 13 {
		t.Fatalf("From=13 replayed %d records starting at %d, want 7 starting at 13",
			len(recs), recs[0].Seq)
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []string{"partial-record", "garbage-suffix", "bit-flip"} {
		t.Run(cut, func(t *testing.T) {
			opts := testOptions(t)
			l, err := Open(opts)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			appendBatches(t, l, "gzip", 4, 9)
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			segs, err := listSegments(opts.Dir)
			if err != nil || len(segs) != 1 {
				t.Fatalf("listSegments: %v (%d)", err, len(segs))
			}
			path := segs[0].path
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			switch cut {
			case "partial-record":
				// Drop the tail half of the final record: a torn write.
				data = data[:len(data)-9]
			case "garbage-suffix":
				// A record that began but never finished its length prefix.
				data = append(data, 0xff, 0xff)
			case "bit-flip":
				// Corrupt a payload byte of the final record: CRC must catch it.
				data[len(data)-3] ^= 0x40
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}

			// The standalone reader stops cleanly at the damage.
			wantRecs := 3
			if cut == "garbage-suffix" {
				wantRecs = 4
			}
			recs, trunc := readAll(t, opts.Dir, 0)
			if len(recs) != wantRecs {
				t.Fatalf("reader yielded %d records, want %d", len(recs), wantRecs)
			}
			if trunc == nil {
				t.Fatalf("reader reported no truncation")
			}

			// Reopening the log truncates the file at the same boundary and
			// resumes numbering after the surviving prefix.
			l, err = Open(opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			rec := l.Recovery()
			if rec == nil {
				t.Fatalf("Open reported no truncation")
			}
			if rec.Dropped <= 0 || rec.Reason == "" {
				t.Fatalf("truncation diagnostic incomplete: %+v", rec)
			}
			if got := l.NextSeq(); got != uint64(wantRecs) {
				t.Fatalf("NextSeq after truncation = %d, want %d", got, wantRecs)
			}
			appendBatches(t, l, "gzip", 1, 77)
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			recs, trunc = readAll(t, opts.Dir, 0)
			if trunc != nil {
				t.Fatalf("truncation persists after repair: %v", trunc)
			}
			if len(recs) != wantRecs+1 {
				t.Fatalf("replayed %d records after repair, want %d", len(recs), wantRecs+1)
			}
		})
	}
}

func TestTornHeaderSegmentRemoved(t *testing.T) {
	opts := testOptions(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendBatches(t, l, "gzip", 2, 3)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash during rotation: the next segment's file exists but
	// its header never hit the disk.
	torn := filepath.Join(opts.Dir, segmentName(2))
	if err := os.WriteFile(torn, []byte("RSW"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	l, err = Open(opts)
	if err != nil {
		t.Fatalf("reopen with torn-header segment: %v", err)
	}
	defer l.Close()
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn-header segment not removed (stat err %v)", err)
	}
	if got := l.NextSeq(); got != 2 {
		t.Fatalf("NextSeq = %d, want 2", got)
	}
}

func TestParamsMismatch(t *testing.T) {
	opts := testOptions(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendBatches(t, l, "gzip", 1, 1)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	bad := opts
	bad.ParamsHash = testHash + 1
	if _, err := Open(bad); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("Open with wrong params hash: %v, want ErrParamsMismatch", err)
	}
	r, err := NewReader(ReaderOptions{Dir: opts.Dir, ParamsHash: testHash + 1})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	defer r.Close()
	if _, err := r.Next(); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("Next with wrong params hash: %v, want ErrParamsMismatch", err)
	}
}

func TestCompaction(t *testing.T) {
	opts := testOptions(t)
	opts.SegmentBytes = 256
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendBatches(t, l, "mcf", 20, 5)
	segs := l.Stats().Segments
	if segs < 4 {
		t.Fatalf("expected >=4 segments, got %d", segs)
	}

	// Compacting to a mid-log anchor removes only wholly-covered segments.
	removed, err := l.CompactTo(10)
	if err != nil {
		t.Fatalf("CompactTo: %v", err)
	}
	if removed == 0 {
		t.Fatalf("CompactTo removed nothing")
	}
	st := l.Stats()
	if st.OldestSeq > 10 {
		t.Fatalf("compaction removed records at or past the anchor: oldest %d", st.OldestSeq)
	}
	if st.OldestSeq == 0 {
		t.Fatalf("compaction removed no prefix")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The retained range replays; a From below it is an explicit error.
	recs, _ := readAll(t, opts.Dir, st.OldestSeq)
	if len(recs) != int(20-st.OldestSeq) {
		t.Fatalf("replayed %d records, want %d", len(recs), 20-st.OldestSeq)
	}
	if _, err := NewReader(ReaderOptions{Dir: opts.Dir, ParamsHash: testHash, From: st.OldestSeq - 1}); err == nil {
		t.Fatalf("NewReader below the retained range succeeded")
	}
}

// TestReaderReportsCompactionMidPass pins the one live-directory hazard of a
// point-in-time (non-follow) pass: a segment that was listed at open but
// compacted away before the reader reaches it fails with an error naming the
// remedy, not a raw missing-file error.
func TestReaderReportsCompactionMidPass(t *testing.T) {
	opts := testOptions(t)
	opts.SegmentBytes = 1 << 10 // rotate often so compaction has prey
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	appendBatches(t, l, "gcc", 30, 7)
	if l.OldestSeq() != 0 {
		t.Fatal("log unexpectedly compacted already")
	}

	r, err := NewReader(ReaderOptions{Dir: opts.Dir, ParamsHash: testHash})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	defer r.Close()
	// The reader holds its first segment open; compact everything else out
	// from under the snapshot it took of the directory.
	anchor := l.NextSeq() - 1
	if _, err := l.CompactTo(anchor); err != nil {
		t.Fatalf("CompactTo: %v", err)
	}
	if l.OldestSeq() == 0 {
		t.Fatal("CompactTo removed nothing; the hazard is not set up")
	}
	for {
		_, err := r.Next()
		if err == nil {
			continue
		}
		if err == io.EOF {
			t.Fatal("pass completed despite segments vanishing mid-pass")
		}
		if !strings.Contains(err.Error(), "compacted away mid-replay") {
			t.Fatalf("error %v does not name the mid-replay compaction", err)
		}
		break
	}
}

func TestCompactionNeverRemovesActiveSegment(t *testing.T) {
	opts := testOptions(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	appendBatches(t, l, "gzip", 3, 2)
	removed, err := l.CompactTo(1 << 60)
	if err != nil {
		t.Fatalf("CompactTo: %v", err)
	}
	if removed != 0 {
		t.Fatalf("CompactTo removed the active segment")
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("Segments = %d, want 1", st.Segments)
	}
}

func TestAlignSeq(t *testing.T) {
	opts := testOptions(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Empty log aligned to a snapshot anchor: numbering starts there.
	if err := l.AlignSeq(42); err != nil {
		t.Fatalf("AlignSeq: %v", err)
	}
	appendBatches(t, l, "gzip", 2, 1)
	// Aligning backwards is a no-op.
	if err := l.AlignSeq(10); err != nil {
		t.Fatalf("AlignSeq backwards: %v", err)
	}
	if got := l.NextSeq(); got != 44 {
		t.Fatalf("NextSeq = %d, want 44", got)
	}
	// Aligning forwards past appended records finishes the active segment
	// and restarts numbering at the anchor.
	if err := l.AlignSeq(100); err != nil {
		t.Fatalf("AlignSeq forward: %v", err)
	}
	appendBatches(t, l, "gzip", 1, 9)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, _ := readAll(t, opts.Dir, 100)
	if len(recs) != 1 || recs[0].Seq != 100 {
		t.Fatalf("replay from aligned anchor got %d records (first seq %v)", len(recs), recs)
	}
	// Replaying from *before* the alignment gap must fail loudly: the
	// records in [44, 100) are genuinely absent (only the snapshot covers
	// them), and replay must never silently skip missing history.
	r, err := NewReader(ReaderOptions{Dir: opts.Dir, ParamsHash: testHash, From: 42})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	defer r.Close()
	seen := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatalf("replay across the alignment gap reached EOF after %d records; want ErrBadSegment", seen)
		}
		if err != nil {
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("replay across gap: %v, want ErrBadSegment", err)
			}
			break
		}
		seen++
	}
	if seen != 2 {
		t.Fatalf("replayed %d records before the gap, want 2", seen)
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	opts := testOptions(t)
	opts.Policy = SyncInterval
	opts.Interval = 5 * time.Millisecond
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if _, err := l.AppendPayload("gzip", trace.EncodeFrameAppend(nil, synthEvents(8, 1))); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOnFsyncObserved(t *testing.T) {
	opts := testOptions(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var observed int
	l.OnFsync = func(d time.Duration) { observed++ }
	appendBatches(t, l, "gzip", 2, 1)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if observed == 0 {
		t.Fatalf("OnFsync never fired under SyncAlways")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in       string
		policy   SyncPolicy
		interval time.Duration
		wantErr  bool
	}{
		{in: "always", policy: SyncAlways},
		{in: "never", policy: SyncNever},
		{in: "interval", policy: SyncInterval, interval: DefaultSyncInterval},
		{in: "interval=250ms", policy: SyncInterval, interval: 250 * time.Millisecond},
		{in: "interval=0s", wantErr: true},
		{in: "interval=bogus", wantErr: true},
		{in: "sometimes", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, tc := range cases {
		p, d, err := ParseSyncPolicy(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSyncPolicy(%q) succeeded, want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSyncPolicy(%q): %v", tc.in, err)
			continue
		}
		if p != tc.policy || d != tc.interval {
			t.Errorf("ParseSyncPolicy(%q) = (%v, %v), want (%v, %v)", tc.in, p, d, tc.policy, tc.interval)
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	opts := testOptions(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := l.AppendPayload("gzip", trace.EncodeFrameAppend(nil, synthEvents(1, 1))); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMidLogCorruptionIsFatal(t *testing.T) {
	opts := testOptions(t)
	opts.SegmentBytes = 256
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendBatches(t, l, "mcf", 12, 4)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("listSegments: %v (%d segments)", err, len(segs))
	}
	// Flip a payload byte in a *middle* segment: replay must refuse to skip
	// over missing history.
	mid := segs[len(segs)/2].path
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)-3] ^= 0x01
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	r, err := NewReader(ReaderOptions{Dir: opts.Dir, ParamsHash: testHash})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	defer r.Close()
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatalf("replay over mid-log corruption reached EOF; want ErrBadSegment")
		}
		if err != nil {
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("replay error %v, want ErrBadSegment", err)
			}
			break
		}
	}
}

// TestFinalSegmentBadRecordIsFatal pins the tail rule on the one segment a
// torn tail may end: a record whose checksum holds but whose frame does not
// decode is corruption, not a torn write. Open keeps it and every record
// after it, a FrameOnly reader yields them all, and a decoding reader fails
// at it with ErrBadSegment. A CRC-valid record whose program field does not
// parse fails Open itself.
func TestFinalSegmentBadRecordIsFatal(t *testing.T) {
	opts := testOptions(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendBatches(t, l, "gzip", 1, 4)
	if _, err := l.AppendPayload("gzip", []byte("not a trace frame")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	appendBatches(t, l, "gzip", 3, 5)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l, err = Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if tr := l.Recovery(); tr != nil {
		t.Fatalf("Open cut the final segment: %v", tr)
	}
	if got := l.NextSeq(); got != 5 {
		t.Fatalf("NextSeq = %d, want 5", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := NewReader(ReaderOptions{Dir: opts.Dir, ParamsHash: testHash, FrameOnly: true})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	n := 0
	for ; ; n++ {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("FrameOnly Next after %d records: %v", n, err)
		}
	}
	if n != 5 || r.Truncation() != nil {
		t.Fatalf("FrameOnly reader yielded %d records (truncation %v), want 5 and none", n, r.Truncation())
	}
	r.Close()

	r, err = NewReader(ReaderOptions{Dir: opts.Dir, ParamsHash: testHash})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	defer r.Close()
	if _, err := r.Next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); !errors.Is(err, ErrBadSegment) || !strings.Contains(err.Error(), "record frame payload") {
			t.Fatalf("Next at the bad record = %v, want ErrBadSegment naming the frame", err)
		}
	}
	if r.NextSeq() != 1 || r.Truncation() != nil {
		t.Fatalf("reader stopped at sequence %d (truncation %v), want 1 and none", r.NextSeq(), r.Truncation())
	}

	segs, err := listSegments(opts.Dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("listSegments: %v (%d)", err, len(segs))
	}
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Payload 0xff: a program-length prefix with no end.
	if _, err := f.Write(rawRecord([]byte{0xff})); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(opts); !errors.Is(err, ErrBadSegment) || !strings.Contains(err.Error(), "program field") {
		t.Fatalf("Open over a bad program field = %v, want ErrBadSegment", err)
	}
}

// TestZeroFilledTailTruncated: a crash can leave the final segment's size on
// disk before its data, so the tail reads as zeros. Zeros parse as an empty
// record whose CRC (0) holds, but the writer never writes an empty record,
// so this is a torn tail: Open cuts it back to the last record boundary and
// keeps every record before it.
func TestZeroFilledTailTruncated(t *testing.T) {
	opts := testOptions(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := appendBatches(t, l, "gzip", 4, 9)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("listSegments: %v (%d)", err, len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0].path, append(data, make([]byte, 8)...), 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = Open(opts)
	if err != nil {
		t.Fatalf("Open over a zero-filled tail: %v", err)
	}
	tr := l.Recovery()
	if tr == nil || tr.Offset != int64(len(data)) || tr.Dropped != 8 || !strings.Contains(tr.Reason, "record length 0") {
		t.Fatalf("Open truncation = %+v, want the 8 zero bytes cut at offset %d", tr, len(data))
	}
	if got := l.NextSeq(); got != 4 {
		t.Fatalf("NextSeq = %d, want 4", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got, err := os.ReadFile(segs[0].path); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("segment after repair: %d bytes (%v), want the %d written", len(got), err, len(data))
	}
	recs, trunc := readAll(t, opts.Dir, 0)
	if trunc != nil || len(recs) != len(want) {
		t.Fatalf("replay after repair: %d records (truncation %v), want %d and none", len(recs), trunc, len(want))
	}
	for i, rec := range recs {
		if !reflect.DeepEqual(rec.Events, want[i]) {
			t.Fatalf("record %d differs after repair", i)
		}
	}
}
