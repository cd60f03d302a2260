package wal

import (
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"reactivespec/internal/trace"
)

// TestFollowReaderConcurrentAppend drives a live reader against a live
// appender: small segments force rotations underneath the reader, and the
// reader must still yield every record exactly once, in order, each one below
// the durable boundary.
func TestFollowReaderConcurrentAppend(t *testing.T) {
	opts := testOptions(t)
	opts.SegmentBytes = 1 << 10 // rotate constantly
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()

	const batches = 200
	want := make([][]trace.Event, batches)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			want[i] = synthEvents(8+i%13, uint64(i))
			if _, err := l.AppendPayload("gzip", trace.EncodeFrameAppend(nil, want[i])); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
			if err := l.Commit(); err != nil {
				t.Errorf("Commit: %v", err)
				return
			}
		}
	}()

	r, err := NewReader(ReaderOptions{Dir: opts.Dir, ParamsHash: testHash, Live: l})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	defer r.Close()

	notify, cancel := l.SubscribeDurable()
	defer cancel()
	got := make([][]trace.Event, 0, batches)
	deadline := time.After(30 * time.Second)
	for len(got) < batches {
		rec, err := r.Next()
		if err == io.EOF {
			// Not an end for a live reader: wait for durability to advance.
			select {
			case <-notify:
			case <-deadline:
				t.Fatalf("live reader stalled at %d/%d records", len(got), batches)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Next after %d records: %v", len(got), err)
		}
		if rec.Seq != uint64(len(got)) {
			t.Fatalf("record %d carries seq %d", len(got), rec.Seq)
		}
		if durable := l.DurableSeq(); rec.Seq >= durable {
			t.Fatalf("record %d yielded at or past the durable boundary %d", rec.Seq, durable)
		}
		if rec.Program != "gzip" {
			t.Fatalf("record %d program %q", len(got), rec.Program)
		}
		got = append(got, append([]trace.Event(nil), rec.Events...))
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d events diverge from what was appended", i)
		}
	}
	if tr := r.Truncation(); tr != nil {
		t.Fatalf("live reader reported a truncation: %v", tr)
	}
}

// TestFollowReaderFrameOnly checks the shipper-side mode: raw frame payloads
// without event decoding must round-trip through the trace codec.
func TestFollowReaderFrameOnly(t *testing.T) {
	opts := testOptions(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	want := appendBatches(t, l, "vpr", 5, 42)

	r, err := NewReader(ReaderOptions{Dir: opts.Dir, ParamsHash: testHash, Live: l, FrameOnly: true})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	defer r.Close()
	for i := range want {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if rec.Events != nil {
			t.Fatalf("record %d decoded events despite FrameOnly", i)
		}
		events, err := trace.DecodeFrameAppend(rec.Frame, nil)
		if err != nil {
			t.Fatalf("record %d frame does not decode: %v", i, err)
		}
		if !reflect.DeepEqual(events, want[i]) {
			t.Fatalf("record %d frame decodes to different events", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at the tail, got %v", err)
	}
	// Non-sticky: a second call still reports EOF rather than a sticky error.
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("live EOF is not retryable: %v", err)
	}
}

// TestFollowReaderStartsBeforeFirstSegment opens the live reader on a log
// that has no segment yet; records appended afterwards must still arrive.
func TestFollowReaderStartsBeforeFirstSegment(t *testing.T) {
	opts := testOptions(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	r, err := NewReader(ReaderOptions{Dir: opts.Dir, ParamsHash: testHash, Live: l})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	defer r.Close()
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF on the empty directory, got %v", err)
	}

	want := appendBatches(t, l, "mcf", 3, 7)
	for i := range want {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if rec.Seq != uint64(i) || !reflect.DeepEqual(rec.Events, want[i]) {
			t.Fatalf("record %d diverges (seq %d)", i, rec.Seq)
		}
	}
}

// TestFollowReaderCompactedBehind pins the fell-behind-compaction diagnosis:
// a live reader positioned below the oldest retained record must fail with
// the full-resync message rather than silently skipping records.
func TestFollowReaderCompactedBehind(t *testing.T) {
	opts := testOptions(t)
	opts.SegmentBytes = 1 << 8
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	appendBatches(t, l, "gcc", 20, 3)
	if l.OldestSeq() == 0 {
		if _, err := l.CompactTo(l.NextSeq() - 1); err != nil {
			t.Fatalf("CompactTo: %v", err)
		}
	}
	if l.OldestSeq() == 0 {
		t.Fatal("compaction removed nothing; the test needs rotated segments")
	}
	_, err = NewReader(ReaderOptions{Dir: opts.Dir, ParamsHash: testHash, From: 0, Live: l})
	if err == nil || !strings.Contains(err.Error(), "full resync") {
		t.Fatalf("want a compacted-away error naming the full resync, got %v", err)
	}
}

// TestLiveReaderStopsAtDurableBound pins the live contract on a SyncNever
// log: a committed but unsynced record is invisible (io.EOF, not sticky), and
// the Sync that makes it durable makes it readable.
func TestLiveReaderStopsAtDurableBound(t *testing.T) {
	opts := testOptions(t)
	opts.Policy = SyncNever
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	r, err := NewReader(ReaderOptions{Dir: opts.Dir, ParamsHash: testHash, Live: l})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	defer r.Close()

	want := synthEvents(9, 5)
	if _, err := l.AppendPayload("gap", trace.EncodeFrameAppend(nil, want)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	for i := 0; i < 2; i++ {
		if rec, err := r.Next(); err != io.EOF {
			t.Fatalf("Next before Sync = (seq %d, %v), want io.EOF", rec.Seq, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatalf("Next after Sync: %v", err)
	}
	if rec.Seq != 0 || rec.Program != "gap" || !reflect.DeepEqual(rec.Events, want) {
		t.Fatalf("Next after Sync yielded seq %d program %q", rec.Seq, rec.Program)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at the new bound, got %v", err)
	}
}

// TestLiveReaderAlignGap pins the live reader's answer to a sequence gap left
// by AlignSeq: records the durable bound covers but no segment holds are a
// permanent error naming the missing range and the full-resync remedy — both
// before and after the first segment past the gap exists.
func TestLiveReaderAlignGap(t *testing.T) {
	opts := testOptions(t)
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	appendBatches(t, l, "gcc", 3, 11)
	if err := l.AlignSeq(8); err != nil {
		t.Fatalf("AlignSeq: %v", err)
	}
	check := func(stage string) {
		t.Helper()
		r, err := NewReader(ReaderOptions{Dir: opts.Dir, ParamsHash: testHash, From: 3, Live: l, FrameOnly: true})
		if err != nil {
			t.Fatalf("%s: NewReader: %v", stage, err)
		}
		defer r.Close()
		rec, err := r.Next()
		if err == nil || err == io.EOF {
			t.Fatalf("%s: Next = (seq %d, %v), want the missing-range error", stage, rec.Seq, err)
		}
		for _, want := range []string{"records [3, 8)", "full resync"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not mention %q", stage, err, want)
			}
		}
		if _, again := r.Next(); again != err {
			t.Fatalf("%s: error is not sticky: %v", stage, again)
		}
	}
	check("no segment past the gap")
	appendBatches(t, l, "gcc", 2, 12)
	check("segment at 8 listed")
}

// TestDurableSeqAndSubscribe pins the durability boundary bookkeeping under
// each sync policy.
func TestDurableSeqAndSubscribe(t *testing.T) {
	opts := testOptions(t)
	opts.Policy = SyncNever
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()

	notify, cancel := l.SubscribeDurable()
	defer cancel()

	if _, err := l.AppendPayload("twolf", trace.EncodeFrameAppend(nil, synthEvents(4, 1))); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("SyncNever advanced DurableSeq to %d without an fsync", got)
	}
	select {
	case <-notify:
		t.Fatal("notified without a durability advance")
	default:
	}

	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := l.DurableSeq(); got != 1 {
		t.Fatalf("DurableSeq after Sync = %d, want 1", got)
	}
	select {
	case <-notify:
	default:
		t.Fatal("no durability notification after Sync")
	}
	if st := l.Stats(); st.DurableSeq != 1 {
		t.Fatalf("Stats.DurableSeq = %d, want 1", st.DurableSeq)
	}
}
