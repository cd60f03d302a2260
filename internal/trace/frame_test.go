package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func frameTestEvents(n, salt int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Branch: BranchID((i*7 + salt) % 40),
			Taken:  (i+salt)%3 != 0,
			Gap:    uint32(1 + (i*13+salt)%30),
		}
	}
	return evs
}

// nextFrame reads the next frame's events through the one reader method.
func nextFrame(fr *FrameReader) ([]Event, error) {
	_, evs, err := fr.NextPayloadAppend(nil, nil)
	return evs, err
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	batches := [][]Event{
		frameTestEvents(100, 1),
		{}, // empty frames are legal
		frameTestEvents(3, 9),
		frameTestEvents(1000, 5),
	}
	for _, b := range batches {
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	for i, want := range batches {
		got, err := nextFrame(fr)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d events, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("frame %d event %d: %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
	if _, err := nextFrame(fr); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
	if fr.Frames() != len(batches) {
		t.Fatalf("Frames() = %d, want %d", fr.Frames(), len(batches))
	}
}

// TestFrameReaderSkipsCorruptFrame checks that a frame with a corrupt payload
// is rejected without losing the frames after it.
func TestFrameReaderSkipsCorruptFrame(t *testing.T) {
	good1 := frameTestEvents(50, 2)
	good2 := frameTestEvents(70, 3)

	// Hand-build the middle frame: valid length prefix, garbage payload.
	payload := EncodeFrameAppend(nil, frameTestEvents(60, 4))
	payload[len(payload)/2] ^= 0xff // corrupt a record
	var buf bytes.Buffer
	if err := WriteFrame(&buf, good1); err != nil {
		t.Fatal(err)
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	buf.Write(hdr[:n])
	buf.Write(payload)
	if err := WriteFrame(&buf, good2); err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(&buf)
	if _, err := nextFrame(fr); err != nil {
		t.Fatalf("frame 0: %v", err)
	}
	_, err := nextFrame(fr)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("frame 1: err = %v, want *FrameError", err)
	}
	if fe.Index != 1 {
		t.Fatalf("FrameError.Index = %d, want 1", fe.Index)
	}
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("FrameError should wrap ErrBadTrace, got %v", err)
	}
	got, err := nextFrame(fr)
	if err != nil {
		t.Fatalf("frame 2 after rejected frame: %v", err)
	}
	if len(got) != len(good2) {
		t.Fatalf("frame 2: %d events, want %d", len(got), len(good2))
	}
	if _, err := nextFrame(fr); err != io.EOF {
		t.Fatalf("end: err = %v, want io.EOF", err)
	}
}

// TestFrameReaderFatalErrors checks that damaged framing is sticky.
func TestFrameReaderFatalErrors(t *testing.T) {
	t.Run("truncated payload", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, frameTestEvents(80, 1)); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		fr := NewFrameReader(bytes.NewReader(full[:len(full)-5]))
		_, err := nextFrame(fr)
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v, want ErrBadFrame", err)
		}
		if _, err2 := nextFrame(fr); !errors.Is(err2, ErrBadFrame) {
			t.Fatalf("fatal error not sticky: %v", err2)
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		var hdr [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(hdr[:], MaxFramePayload+1)
		fr := NewFrameReader(bytes.NewReader(hdr[:n]))
		if _, err := nextFrame(fr); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v, want ErrBadFrame", err)
		}
	})
}

// TestDecodeFrameTrailingGarbage checks that extra payload bytes after the
// declared events are rejected, not silently ignored.
func TestDecodeFrameTrailingGarbage(t *testing.T) {
	payload := EncodeFrameAppend(nil, frameTestEvents(10, 6))
	payload = append(payload, 0x00, 0x01)
	if _, err := DecodeFrame(payload); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace for trailing garbage", err)
	}
}
