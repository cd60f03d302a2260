package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// TestEncodeFrameAppendMatchesWriter pins that the append-style frame
// encoder produces byte-identical payloads to the trace codec's Writer (a
// frame payload is a complete trace blob), including when appending after
// existing bytes.
func TestEncodeFrameAppendMatchesWriter(t *testing.T) {
	for _, evs := range [][]Event{
		nil,
		frameTestEvents(1, 0),
		frameTestEvents(100, 1),
		frameTestEvents(1000, 5),
	} {
		var blob bytes.Buffer
		if _, err := Capture(&blob, NewSliceStream(evs), uint64(len(evs))); err != nil {
			t.Fatal(err)
		}
		want := blob.Bytes()
		if got := EncodeFrameAppend(nil, evs); !bytes.Equal(got, want) {
			t.Fatalf("%d events: EncodeFrameAppend differs from the codec Writer", len(evs))
		}
		prefix := []byte("existing")
		got := EncodeFrameAppend(append([]byte(nil), prefix...), evs)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%d events: EncodeFrameAppend clobbered the prefix", len(evs))
		}
	}
}

// TestAppendFrameMatchesWriteFrame pins that AppendFrame emits the exact
// length-prefixed bytes WriteFrame emits, frame after frame in one buffer.
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	batches := [][]Event{
		frameTestEvents(40, 2),
		{},
		frameTestEvents(900, 7),
	}
	var want bytes.Buffer
	var got []byte
	for _, b := range batches {
		if err := WriteFrame(&want, b); err != nil {
			t.Fatal(err)
		}
		got = AppendFrame(got, b)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("AppendFrame bytes differ from WriteFrame bytes")
	}
}

// TestDecodeFrameAppendMatchesDecodeFrame checks agreement on valid payloads,
// truncations, and single-byte corruptions: same events, same accept/reject.
func TestDecodeFrameAppendMatchesDecodeFrame(t *testing.T) {
	payload := EncodeFrameAppend(nil, frameTestEvents(200, 3))
	check := func(p []byte) {
		t.Helper()
		want, wantErr := DecodeFrame(p)
		got, gotErr := DecodeFrameAppend(p, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("decode disagreement: DecodeFrame err=%v, DecodeFrameAppend err=%v", wantErr, gotErr)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, ErrBadTrace) {
				t.Fatalf("DecodeFrameAppend error %v does not wrap ErrBadTrace", gotErr)
			}
			if len(got) != 0 {
				t.Fatalf("DecodeFrameAppend returned %d events alongside an error", len(got))
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%d events, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d: %+v != %+v", i, got[i], want[i])
			}
		}
	}
	check(payload)
	for _, cut := range []int{0, 3, 4, 5, len(payload) / 2, len(payload) - 1} {
		check(payload[:cut])
	}
	for _, flip := range []int{0, 4, 5, 6, len(payload) / 2, len(payload) - 1} {
		p := append([]byte(nil), payload...)
		p[flip] ^= 0xff
		check(p)
	}
	check(append(append([]byte(nil), payload...), 0x00))
}

// TestDecodeFrameAppendPreservesDstOnError checks that a rejected payload
// leaves previously appended events intact and adds nothing.
func TestDecodeFrameAppendPreservesDstOnError(t *testing.T) {
	good := EncodeFrameAppend(nil, frameTestEvents(10, 1))
	bad := append(append([]byte(nil), good...), 0x7f) // trailing garbage
	dst, err := DecodeFrameAppend(good, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]Event(nil), dst...)
	dst, err = DecodeFrameAppend(bad, dst)
	if err == nil {
		t.Fatal("corrupt payload accepted")
	}
	if len(dst) != len(before) {
		t.Fatalf("dst grew to %d events on error, want %d", len(dst), len(before))
	}
	for i := range before {
		if dst[i] != before[i] {
			t.Fatalf("dst event %d changed on error", i)
		}
	}
}

// TestNextAppendAccumulates reads a multi-frame stream, rejected frame in the
// middle, into shared buffers through NextPayloadAppend and checks positions
// and contents: the events of every good frame accumulate in order and the
// rejected frame leaves both buffers unchanged.
func TestNextAppendAccumulates(t *testing.T) {
	good1 := frameTestEvents(50, 2)
	good2 := frameTestEvents(70, 3)
	corrupt := EncodeFrameAppend(nil, frameTestEvents(60, 4))
	corrupt[len(corrupt)/2] ^= 0xff
	var buf bytes.Buffer
	if err := WriteFrame(&buf, good1); err != nil {
		t.Fatal(err)
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(corrupt)))
	buf.Write(hdr[:n])
	buf.Write(corrupt)
	if err := WriteFrame(&buf, good2); err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(&buf)
	var payload []byte
	var all []Event
	payload, all, err := fr.NextPayloadAppend(payload, all)
	if err != nil || len(all) != len(good1) {
		t.Fatalf("frame 0: %d events, err %v", len(all), err)
	}
	gotPayload, got, err := fr.NextPayloadAppend(payload, all)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("frame 1: err = %v, want *FrameError", err)
	}
	if len(got) != len(all) || len(gotPayload) != len(payload) {
		t.Fatalf("rejected frame changed dst lengths: %d -> %d events, %d -> %d bytes",
			len(all), len(got), len(payload), len(gotPayload))
	}
	payload, all, err = fr.NextPayloadAppend(payload, all)
	if err != nil || len(all) != len(good1)+len(good2) {
		t.Fatalf("frame 2: %d events, err %v", len(all), err)
	}
	for i, want := range good1 {
		if all[i] != want {
			t.Fatalf("event %d: %+v != %+v", i, all[i], want)
		}
	}
	for i, want := range good2 {
		if all[len(good1)+i] != want {
			t.Fatalf("event %d: %+v != %+v", len(good1)+i, all[len(good1)+i], want)
		}
	}
	if _, _, err := fr.NextPayloadAppend(payload, all); err != io.EOF {
		t.Fatalf("end: err = %v, want io.EOF", err)
	}
}

// TestNextPayloadAppendMatchesNextAppend checks that the two buffers
// NextPayloadAppend fills agree: each frame's payload span decodes to its
// batch, and the events appended for that frame are that same batch.
func TestNextPayloadAppendMatchesNextAppend(t *testing.T) {
	var wire bytes.Buffer
	batches := [][]Event{mkEvents(10), mkEvents(100), mkEvents(3)}
	for _, b := range batches {
		if err := WriteFrame(&wire, b); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(wire.Bytes()))
	var buf []byte
	var evs []Event
	var spans [][2]int
	for i := range batches {
		start, e0 := len(buf), len(evs)
		var err error
		buf, evs, err = fr.NextPayloadAppend(buf, evs)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n := len(evs) - e0; n != len(batches[i]) {
			t.Fatalf("frame %d: count %d, want %d", i, n, len(batches[i]))
		}
		for j, want := range batches[i] {
			if evs[e0+j] != want {
				t.Fatalf("frame %d event %d: %+v != %+v", i, j, evs[e0+j], want)
			}
		}
		spans = append(spans, [2]int{start, len(buf)})
	}
	if _, _, err := fr.NextPayloadAppend(buf, evs); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
	// Each accumulated span decodes to its batch.
	for i, sp := range spans {
		got, err := DecodeFrameAppend(buf[sp[0]:sp[1]], nil)
		if err != nil {
			t.Fatalf("span %d: %v", i, err)
		}
		if len(got) != len(batches[i]) {
			t.Fatalf("span %d: %d events, want %d", i, len(got), len(batches[i]))
		}
		for j := range got {
			if got[j] != batches[i][j] {
				t.Fatalf("span %d event %d mismatch", i, j)
			}
		}
	}
}

// walkerEdgeCases are payloads at the edges of the frame walker's one-step
// path for short records (a one- or two-byte delta and a one-byte gap, at
// least four bytes from the end), each with the diagnostic the per-field
// walker gives it ("" = accepted). A record at a range check is followed by
// a padding record so that it is not within three bytes of the end.
func walkerEdgeCases() []struct {
	name    string
	payload []byte
	err     string
} {
	frame := func(count uint64, records ...byte) []byte {
		return append(appendHeader(nil, count), records...)
	}
	maxID := binary.AppendUvarint(nil, uint64(^uint32(0))<<1) // zig-zag delta 0 → 2³²−1
	return []struct {
		name    string
		payload []byte
		err     string
	}{
		{"two-byte delta and gap end the payload", frame(2, 0x02, 0x00, 0x80, 0x01, 0x07), ""},
		{"two-byte delta ends the payload", frame(2, 0x02, 0x00, 0x80, 0x01),
			"trace: malformed trace file: truncated gap/outcome at byte offset 10 (event 1 of 2): EOF"},
		{"one-byte delta below zero", frame(2, 0x01, 0x00, 0x00, 0x00),
			"trace: malformed trace file: branch id -1 out of range at byte offset 8 (event 0 of 2)"},
		{"one-byte delta above 2^32-1", frame(3, append(append(maxID, 0x00), 0x02, 0x00, 0x00, 0x00)...),
			"trace: malformed trace file: branch id 4294967296 out of range at byte offset 14 (event 1 of 3)"},
		{"gap byte with continuation bit", frame(2, 0x02, 0x81, 0x01, 0x00, 0x00), ""},
		{"three-byte delta", frame(2, 0x80, 0x80, 0x01, 0x00, 0x00, 0x00), ""},
		{"record cut mid-delta", frame(2, 0x02, 0x00, 0x80),
			"trace: malformed trace file: truncated branch delta at byte offset 9 (event 1 of 2): unexpected EOF"},
	}
}

// TestWalkerEdgeCases checks each edge payload: DecodeFrameAppend agrees
// with DecodeFrame, and a rejection carries the pinned diagnostic, from
// DecodeFrameAppend and ValidateFrame alike.
func TestWalkerEdgeCases(t *testing.T) {
	for _, tc := range walkerEdgeCases() {
		want, wantErr := DecodeFrame(tc.payload)
		got, gotErr := DecodeFrameAppend(tc.payload, nil)
		_, valErr := ValidateFrame(tc.payload)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("%s: DecodeFrame err=%v, DecodeFrameAppend err=%v", tc.name, wantErr, gotErr)
			continue
		}
		if gotErr == nil {
			if tc.err != "" {
				t.Errorf("%s: accepted, want %q", tc.name, tc.err)
			}
			if len(got) != len(want) {
				t.Errorf("%s: %d events, DecodeFrame %d", tc.name, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: event %d: %+v != %+v", tc.name, i, got[i], want[i])
				}
			}
			continue
		}
		if gotErr.Error() != tc.err {
			t.Errorf("%s: DecodeFrameAppend error\n  %v\nwant\n  %s", tc.name, gotErr, tc.err)
		}
		if valErr == nil || valErr.Error() != tc.err {
			t.Errorf("%s: ValidateFrame error\n  %v\nwant\n  %s", tc.name, valErr, tc.err)
		}
	}
}
