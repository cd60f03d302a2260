package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// TestValidateFrameMatchesDecode pins ValidateFrame's contract: same
// accept/reject set and identical diagnostics as DecodeFrameAppend, plus the
// correct event count on acceptance.
func TestValidateFrameMatchesDecode(t *testing.T) {
	valid := EncodeFrameAppend(nil, mkEvents(40))
	inputs := map[string][]byte{
		"valid":     valid,
		"empty":     {},
		"bad magic": []byte("XXXXrest"),
		"truncated": valid[:len(valid)-2],
		"trailing":  append(append([]byte{}, valid...), 0),
	}
	for name, payload := range inputs {
		want, wantErr := DecodeFrameAppend(payload, nil)
		count, gotErr := ValidateFrame(payload)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: DecodeFrameAppend err=%v, ValidateFrame err=%v", name, wantErr, gotErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: diagnostics differ:\n decode:   %v\n validate: %v", name, wantErr, gotErr)
			}
			continue
		}
		if count != len(want) {
			t.Fatalf("%s: ValidateFrame count %d, decode produced %d events", name, count, len(want))
		}
	}
}

// FuzzValidateFrame differentially checks ValidateFrame against
// DecodeFrameAppend for arbitrary payloads: identical accept/reject,
// identical error text, matching counts.
func FuzzValidateFrame(f *testing.F) {
	valid := EncodeFrameAppend(nil, mkEvents(30))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte{}, valid...), 0))
	f.Add([]byte{})
	for _, tc := range walkerEdgeCases() {
		f.Add(tc.payload)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := DecodeFrameAppend(data, nil)
		count, gotErr := ValidateFrame(data)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("disagreement: decode err=%v, validate err=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("diagnostics differ:\n decode:   %v\n validate: %v", wantErr, gotErr)
			}
			if !errors.Is(gotErr, ErrBadTrace) {
				t.Fatalf("validate error %v does not wrap ErrBadTrace", gotErr)
			}
			return
		}
		if count != len(want) {
			t.Fatalf("validate count %d, decode produced %d events", count, len(want))
		}
	})
}

// TestNextPayloadAppendRejectsCorruptPayload checks the reject-and-continue
// contract: a frame whose payload fails to decode comes back as *FrameError
// with both buffers unchanged, and the reader resumes at the following frame.
func TestNextPayloadAppendRejectsCorruptPayload(t *testing.T) {
	var wire bytes.Buffer
	if err := WriteFrame(&wire, mkEvents(5)); err != nil {
		t.Fatal(err)
	}
	// A well-framed garbage payload.
	garbage := []byte("not a trace blob")
	wire.Write(appendUvarint(nil, uint64(len(garbage))))
	wire.Write(garbage)
	if err := WriteFrame(&wire, mkEvents(7)); err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(bytes.NewReader(wire.Bytes()))
	buf, evs, err := fr.NextPayloadAppend(nil, nil)
	if err != nil || len(evs) != 5 {
		t.Fatalf("frame 0: n=%d err=%v", len(evs), err)
	}
	mark, emark := len(buf), len(evs)
	buf, evs, err = fr.NextPayloadAppend(buf, evs)
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Index != 1 {
		t.Fatalf("frame 1: err = %v, want *FrameError index 1", err)
	}
	if len(buf) != mark || len(evs) != emark {
		t.Fatalf("rejected frame extended dst by %d bytes, %d events", len(buf)-mark, len(evs)-emark)
	}
	buf, evs, err = fr.NextPayloadAppend(buf, evs)
	if n := len(evs) - emark; err != nil || n != 7 {
		t.Fatalf("frame 2 after reject: n=%d err=%v", n, err)
	}
	if _, _, err := fr.NextPayloadAppend(buf, evs); err != io.EOF {
		t.Fatalf("tail: err = %v, want io.EOF", err)
	}
}

// TestReadSessionFramePeeksWhenItFits pins the session-frame reader's two
// paths: a payload that fits the bufio buffer aliases that buffer and leaves
// scratch untouched, and a larger one is read into scratch.
func TestReadSessionFramePeeksWhenItFits(t *testing.T) {
	var wire []byte
	payloads := [][]byte{bytes.Repeat([]byte{1}, 100), {}, bytes.Repeat([]byte{2}, 4000)}
	for i, p := range payloads {
		wire = AppendSessionFrame(wire, byte('A'+i), p)
	}

	br := bufio.NewReaderSize(bytes.NewReader(wire), 1<<16)
	var scratch []byte
	for i, want := range payloads {
		typ, payload, newScratch, err := ReadSessionFrame(br, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte('A'+i) || !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: type %q payload %d bytes", i, typ, len(payload))
		}
		if len(newScratch) != len(scratch) || (len(scratch) > 0 && &newScratch[0] != &scratch[0]) {
			// The peek path must not have grown scratch.
			t.Fatalf("frame %d: scratch changed on the zero-copy path", i)
		}
		scratch = newScratch
	}
	if _, _, _, err := ReadSessionFrame(br, scratch); err != io.EOF {
		t.Fatalf("tail: err = %v, want io.EOF", err)
	}

	// A frame larger than the bufio buffer is read into scratch and still
	// round-trips.
	big := bytes.Repeat([]byte{9}, 8000)
	wire = AppendSessionFrame(nil, StreamFrameDecisions, big)
	small := bufio.NewReaderSize(bytes.NewReader(wire), 1<<9) // bufio min size is 16; 512 < 8000
	typ, payload, scratch, err := ReadSessionFrame(small, nil)
	if err != nil || typ != StreamFrameDecisions || !bytes.Equal(payload, big) {
		t.Fatalf("scratch path: type %q len %d err %v", typ, len(payload), err)
	}
	if &payload[0] != &scratch[0] {
		t.Fatal("scratch path: payload does not alias the returned scratch")
	}
}

// TestReadSessionFramePathsRejectDamage checks that the peek path and the
// scratch path report identical ErrBadFrame-wrapped diagnostics.
func TestReadSessionFramePathsRejectDamage(t *testing.T) {
	good := AppendSessionFrame(nil, StreamFrameEvents, bytes.Repeat([]byte{'p'}, 100))
	for name, wire := range map[string][]byte{
		"truncated payload": good[:len(good)-2],
		"length only":       good[:2],
		"over-cap length": {StreamFrameEvents,
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		// 100 bytes fit a 64 KiB buffer (peek) but not a 16-byte one (scratch).
		_, _, _, peekErr := ReadSessionFrame(bufio.NewReaderSize(bytes.NewReader(wire), 1<<16), nil)
		_, _, _, copyErr := ReadSessionFrame(bufio.NewReaderSize(bytes.NewReader(wire), 16), nil)
		if !errors.Is(peekErr, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, peekErr)
		}
		if fmt.Sprint(peekErr) != fmt.Sprint(copyErr) {
			t.Errorf("%s: peek err=%v, scratch err=%v", name, peekErr, copyErr)
		}
	}
}

// FuzzReadSessionFramePaths differentially checks the session-frame reader
// over arbitrary byte streams at the minimum bufio size (most payloads take
// the scratch path) and a large one (every payload is peeked): both must
// agree on every frame and on every error text.
func FuzzReadSessionFramePaths(f *testing.F) {
	events := AppendSessionFrame(nil, StreamFrameEvents, EncodeFrameAppend(nil, mkEvents(10)))
	f.Add(events)
	f.Add(events[:len(events)-4])
	f.Add(AppendSessionFrame(events, StreamFrameClose, nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		small := bufio.NewReaderSize(bytes.NewReader(data), 16)
		large := bufio.NewReaderSize(bytes.NewReader(data), 1<<16)
		var smallScratch, largeScratch []byte
		for n := 0; ; n++ {
			sTyp, sPayload, ss, sErr := ReadSessionFrame(small, smallScratch)
			lTyp, lPayload, ls, lErr := ReadSessionFrame(large, largeScratch)
			smallScratch, largeScratch = ss, ls
			if fmt.Sprint(sErr) != fmt.Sprint(lErr) {
				t.Fatalf("frame %d: small err=%v, large err=%v", n, sErr, lErr)
			}
			if lErr != nil {
				if lErr != io.EOF && !errors.Is(lErr, ErrBadFrame) {
					t.Fatalf("error %v is neither EOF nor ErrBadFrame", lErr)
				}
				break
			}
			if sTyp != lTyp || !bytes.Equal(sPayload, lPayload) {
				t.Fatalf("frame %d: type %q/%q payloads %d/%d bytes",
					n, sTyp, lTyp, len(sPayload), len(lPayload))
			}
			if n > len(data) {
				t.Fatal("more frames than the input could encode")
			}
		}
	})
}

// appendUvarint is a tiny test helper for hand-building wire bytes.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}
