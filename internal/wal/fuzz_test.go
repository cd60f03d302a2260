package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"reactivespec/internal/trace"
)

// validSegmentBytes builds one real segment file (header + records) and
// returns its raw bytes, for seeding the fuzz corpora.
func validSegmentBytes(f *testing.F, records int) []byte {
	f.Helper()
	dir := f.TempDir()
	l, err := Open(Options{Dir: dir, ParamsHash: testHash, Policy: SyncAlways})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := l.AppendPayload("gzip", trace.EncodeFrameAppend(nil, synthEvents(8+i, uint64(i)))); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		f.Fatalf("listSegments: %v (%d)", err, len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// scanRecords decodes a record stream (segment bytes *after* the header) and
// returns the record count and the byte length of the valid prefix.
func scanRecords(t *testing.T, data []byte) (records int, prefix int64) {
	t.Helper()
	d := newSegmentDecoder(bytes.NewReader(data), segHeaderSize+int64(len(data)))
	var dst []trace.Event
	for {
		_, _, events, err := d.next(dst[:0], true)
		if err != nil {
			if err == io.EOF && records == 0 && len(data) > 0 && d.off != segHeaderSize {
				t.Fatalf("EOF with non-boundary offset %d", d.off)
			}
			return records, d.off - segHeaderSize
		}
		dst = events
		records++
		if records > len(data) {
			t.Fatal("decoder produced more records than any input this size could encode")
		}
	}
}

// FuzzSegmentRecords feeds arbitrary bytes to the segment record decoder: it
// must never panic, and the valid prefix it reports must be stable — cutting
// the input at the reported boundary and re-scanning yields the same records
// with a clean end. That is the recovery contract: truncate a torn tail
// once, and the survivor replays cleanly forever after.
func FuzzSegmentRecords(f *testing.F) {
	valid := validSegmentBytes(f, 4)[segHeaderSize:]
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte{}, valid...), 0xff, 0xff))
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Add([]byte{})
	// A huge declared record length over no payload.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// A zero-length record (CRC of empty payload is 0, frame decode fails).
	f.Add([]byte{0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		records, prefix := scanRecords(t, data)
		if prefix < 0 || prefix > int64(len(data)) {
			t.Fatalf("reported prefix %d outside [0, %d]", prefix, len(data))
		}
		again, againPrefix := scanRecords(t, data[:prefix])
		if again != records || againPrefix != prefix {
			t.Fatalf("re-scan of the reported prefix: %d records / %d bytes, want %d / %d",
				again, againPrefix, records, prefix)
		}
	})
}

// FuzzOpenSegment feeds arbitrary bytes to the full Open path as an on-disk
// segment: Open must never panic, must either reject the directory with a
// typed error or open it, and whatever it opens must replay exactly NextSeq
// records and reopen cleanly with no further truncation.
func FuzzOpenSegment(f *testing.F) {
	valid := validSegmentBytes(f, 4)
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add(valid[:segHeaderSize])
	f.Add(valid[:3]) // torn header
	f.Add([]byte{})
	badMagic := append([]byte{}, valid...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	badVersion := append([]byte{}, valid...)
	badVersion[4] = 99
	f.Add(badVersion)
	badHash := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(badHash[5:], testHash+1)
	f.Add(badHash)
	badBase := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(badBase[13:], 7)
	f.Add(badBase)
	tail := append([]byte{}, valid...)
	tail[len(tail)-2] ^= 0x08
	f.Add(tail)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(0))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir, ParamsHash: testHash, Policy: SyncNever})
		if err != nil {
			if !errors.Is(err, ErrBadSegment) && !errors.Is(err, ErrParamsMismatch) {
				t.Fatalf("Open error %v wraps neither ErrBadSegment nor ErrParamsMismatch", err)
			}
			return
		}
		next := l.NextSeq()
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		r, err := NewReader(ReaderOptions{Dir: dir, ParamsHash: testHash})
		if err != nil {
			t.Fatalf("NewReader after successful Open: %v", err)
		}
		var got uint64
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("replay after Open truncation failed at record %d: %v", got, err)
			}
			got++
		}
		r.Close()
		if got != next {
			t.Fatalf("replayed %d records, Open promised %d", got, next)
		}

		// Idempotence: a second Open finds nothing left to repair.
		l, err = Open(Options{Dir: dir, ParamsHash: testHash, Policy: SyncNever})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if tr := l.Recovery(); tr != nil {
			t.Fatalf("second Open still truncating: %v", tr)
		}
		if l.NextSeq() != next {
			t.Fatalf("second Open NextSeq %d, want %d", l.NextSeq(), next)
		}
		l.Close()
	})
}
