package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func errorsIsBadTrace(err error) bool { return errors.Is(err, ErrBadTrace) }

// FuzzReader feeds arbitrary bytes to the trace decoder: it must never
// panic, and must either decode cleanly or report ErrBadTrace-wrapped
// errors.
func FuzzReader(f *testing.F) {
	// Seed with a valid trace and some corruptions of it.
	var buf bytes.Buffer
	events := mkEvents(20)
	if _, err := Capture(&buf, NewSliceStream(events), 20); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("RSPT"))
	f.Add([]byte{})
	corrupted := append([]byte{}, valid...)
	if len(corrupted) > 8 {
		corrupted[8] ^= 0xff
	}
	f.Add(corrupted)
	// Header-format probes: good magic with a bad version, a huge declared
	// event count over no records, and an overflowing record varint.
	f.Add(append(append([]byte{}, traceMagic[:]...), 99, 0))
	f.Add(append(append([]byte{}, traceMagic[:]...), traceVersion,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add(append(append([]byte{}, traceMagic[:]...), traceVersion, 2,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errorsIsBadTrace(err) {
				t.Fatalf("header error %v does not wrap ErrBadTrace", err)
			}
			return
		}
		n := 0
		for {
			ev, ok := r.Next()
			if !ok {
				break
			}
			_ = ev // any uint32 gap is representable; oversized ones error out
			n++
			if n > 1<<20 {
				t.Fatal("decoder produced more events than any input this size could encode")
			}
		}
		if err := r.Err(); err != nil && !errorsIsBadTrace(err) {
			t.Fatalf("decode error %v does not wrap ErrBadTrace", err)
		}
	})
}

// FuzzDecodeFrameAppend differentially checks the in-place payload decoder
// against the reader-based reference: for arbitrary payload bytes the two
// must agree on accept/reject and, when accepting, on every decoded event.
func FuzzDecodeFrameAppend(f *testing.F) {
	var buf bytes.Buffer
	events := mkEvents(30)
	if _, err := Capture(&buf, NewSliceStream(events), 30); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte{}, valid...), 0))
	f.Add([]byte("RSPT"))
	f.Add([]byte{})
	for _, tc := range walkerEdgeCases() {
		f.Add(tc.payload)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := DecodeFrame(data)
		got, gotErr := DecodeFrameAppend(data, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("disagreement: DecodeFrame err=%v, DecodeFrameAppend err=%v", wantErr, gotErr)
		}
		if gotErr != nil {
			if !errorsIsBadTrace(gotErr) {
				t.Fatalf("error %v does not wrap ErrBadTrace", gotErr)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d events, reference decoded %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d: %+v != reference %+v", i, got[i], want[i])
			}
		}
	})
}

// FuzzStreamHandshake feeds arbitrary bytes to all four hello/ack decoders —
// the stream's handshake and ack and replication's hello and ack, which share
// one codec: they must never panic and must either decode cleanly or report
// ErrBadHandshake-wrapped errors. Valid hellos must round-trip exactly.
func FuzzStreamHandshake(f *testing.F) {
	valid := AppendHandshake(nil, Handshake{
		Proto: StreamProtoVersion, ParamsHash: 0x1234, Window: 8, Program: "gzip@0",
	})
	f.Add(valid)
	// Truncated handshakes: mid-magic, mid-varint, mid-program-name.
	f.Add(valid[:2])
	f.Add(valid[:5])
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("RSHS"))
	f.Add([]byte{})
	// A declared program length far beyond the actual bytes.
	f.Add(append(append([]byte{}, valid[:6]...), 0xff, 0xff, 0x01))
	validAck := AppendAck(nil, Ack{Proto: StreamProtoVersion, Window: 8, ParamsHash: 0x1234})
	f.Add(validAck)
	f.Add(validAck[:len(validAck)-1])
	f.Add(AppendAck(nil, Ack{Err: &StreamError{Code: StreamCodeDraining, Msg: "going away"}}))
	f.Add(AppendReplHello(nil, ReplHello{Proto: ReplicationProtoVersion, ParamsHash: 0x1234, From: 300, Window: 16}))
	f.Add(AppendReplAck(nil, ReplAck{Proto: ReplicationProtoVersion, Window: 16, Oldest: 3, Next: 300}))
	f.Add(AppendReplAck(nil, ReplAck{Err: &StreamError{Code: ReplCodeCompacted, Msg: "stale"}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHandshake(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			if !errors.Is(err, ErrBadHandshake) {
				t.Fatalf("handshake error %v does not wrap ErrBadHandshake", err)
			}
		} else {
			// An accepted handshake re-encodes and re-decodes to itself
			// (the varint wire form is not canonical, so compare values,
			// not bytes).
			again, err := ReadHandshake(bufio.NewReader(bytes.NewReader(AppendHandshake(nil, h))))
			if err != nil || again != h {
				t.Fatalf("accepted handshake %+v does not round-trip: %+v, %v", h, again, err)
			}
		}
		if _, err := ReadAck(bufio.NewReader(bytes.NewReader(data))); err != nil &&
			!errors.Is(err, ErrBadHandshake) {
			t.Fatalf("ack error %v does not wrap ErrBadHandshake", err)
		}
		rh, err := ReadReplHello(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			if !errors.Is(err, ErrBadHandshake) {
				t.Fatalf("replication hello error %v does not wrap ErrBadHandshake", err)
			}
		} else if again, err := ReadReplHello(bufio.NewReader(bytes.NewReader(AppendReplHello(nil, rh)))); err != nil || again != rh {
			t.Fatalf("accepted replication hello %+v does not round-trip: %+v, %v", rh, again, err)
		}
		if _, err := ReadReplAck(bufio.NewReader(bytes.NewReader(data))); err != nil &&
			!errors.Is(err, ErrBadHandshake) {
			t.Fatalf("replication ack error %v does not wrap ErrBadHandshake", err)
		}
	})
}

// FuzzSessionFrame feeds arbitrary bytes to the session-frame reader: it must
// never panic, and every frame stream must end in io.EOF (clean boundary) or
// an ErrBadFrame-wrapped framing error.
func FuzzSessionFrame(f *testing.F) {
	events := AppendSessionFrame(nil, StreamFrameEvents, EncodeFrameAppend(nil, mkEvents(10)))
	f.Add(events)
	// Truncated session frames: type byte only, mid-length, mid-payload.
	f.Add(events[:1])
	f.Add(events[:2])
	f.Add(events[:len(events)-4])
	f.Add(AppendSessionFrame(events, StreamFrameClose, nil))
	f.Add(AppendSessionFrame(nil, StreamFrameTerminal,
		AppendStreamError(nil, StreamError{Code: StreamCodeBye})))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var scratch []byte
		for n := 0; ; n++ {
			var err error
			_, _, scratch, err = ReadSessionFrame(br, scratch)
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("session frame error %v does not wrap ErrBadFrame", err)
				}
				return
			}
			if n > len(data) {
				t.Fatal("reader produced more frames than any input this size could encode")
			}
		}
	})
}

// FuzzRoundTrip checks that any event sequence encodes and decodes exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		events := make([]Event, 0, len(data)/3)
		for i := 0; i+2 < len(data); i += 3 {
			events = append(events, Event{
				Branch: BranchID(data[i]),
				Taken:  data[i+1]&1 == 1,
				Gap:    uint32(data[i+2]) + 1,
			})
		}
		var buf bytes.Buffer
		if _, err := Capture(&buf, NewSliceStream(events), uint64(len(events))); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got := Collect(r)
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		if len(got) != len(events) {
			t.Fatalf("decoded %d of %d events", len(got), len(events))
		}
		for i := range got {
			if got[i] != events[i] {
				t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
			}
		}
	})
}
