package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestHandshakeRoundTrip(t *testing.T) {
	for _, h := range []Handshake{
		{Proto: StreamProtoVersion, ParamsHash: 0xdeadbeefcafe, Window: 16, Program: "gzip@3"},
		{Proto: 7, ParamsHash: 0, Window: 0, Program: ""},
		{Proto: StreamProtoVersion, ParamsHash: ^uint64(0), Window: ^uint32(0), Program: strings.Repeat("p", MaxHandshakeProgram)},
	} {
		wire := AppendHandshake(nil, h)
		got, err := ReadHandshake(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatalf("ReadHandshake(%+v): %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip %+v -> %+v", h, got)
		}
	}
}

func TestHandshakeRejectsDamage(t *testing.T) {
	wire := AppendHandshake(nil, Handshake{Proto: 1, ParamsHash: 42, Window: 4, Program: "p"})
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), wire[4:]...),
		"truncated":   wire[:len(wire)-1],
		"header only": wire[:4],
	}
	// An over-cap program length must be rejected before allocation.
	overlong := AppendHandshake(nil, Handshake{Proto: 1, Program: strings.Repeat("p", MaxHandshakeProgram+1)})
	cases["overlong program"] = overlong
	for name, wire := range cases {
		if _, err := ReadHandshake(bufio.NewReader(bytes.NewReader(wire))); !errors.Is(err, ErrBadHandshake) {
			t.Errorf("%s: err = %v, want ErrBadHandshake", name, err)
		}
	}
}

func TestAckRoundTrip(t *testing.T) {
	grant := Ack{Proto: StreamProtoVersion, Window: 32, ParamsHash: 99}
	got, err := ReadAck(bufio.NewReader(bytes.NewReader(AppendAck(nil, grant))))
	if err != nil {
		t.Fatal(err)
	}
	if got != grant {
		t.Fatalf("grant round trip %+v -> %+v", grant, got)
	}

	reject := Ack{Err: &StreamError{Code: StreamCodeParamMismatch, Msg: "hash 1 != 2"}}
	got, err = ReadAck(bufio.NewReader(bytes.NewReader(AppendAck(nil, reject))))
	if err != nil {
		t.Fatal(err)
	}
	if got.Err == nil || *got.Err != *reject.Err {
		t.Fatalf("reject round trip %+v -> %+v", reject, got)
	}
	if !strings.Contains(got.Err.Error(), StreamCodeParamMismatch) {
		t.Fatalf("StreamError.Error() = %q", got.Err.Error())
	}
}

func TestStreamErrorRoundTrip(t *testing.T) {
	se := StreamError{Code: StreamCodeDraining, Msg: "server shutting down"}
	got, err := DecodeStreamError(AppendStreamError(nil, se))
	if err != nil {
		t.Fatal(err)
	}
	if got != se {
		t.Fatalf("round trip %+v -> %+v", se, got)
	}
	if _, err := DecodeStreamError(append(AppendStreamError(nil, se), 0)); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("trailing byte: err = %v, want ErrBadHandshake", err)
	}
	if _, err := DecodeStreamError(AppendStreamError(nil, se)[:3]); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("truncation: err = %v, want ErrBadHandshake", err)
	}
}

func TestSessionFrameRoundTrip(t *testing.T) {
	events := mkEvents(50)
	var wire []byte
	wire = AppendSessionFrame(wire, StreamFrameEvents, EncodeFrameAppend(nil, events))
	wire = AppendSessionFrame(wire, StreamFrameDecisions, []byte{1, 2, 3})
	wire = AppendSessionFrame(wire, StreamFrameClose, nil)

	br := bufio.NewReader(bytes.NewReader(wire))
	var scratch []byte

	typ, payload, scratch, err := ReadSessionFrame(br, scratch)
	if err != nil || typ != StreamFrameEvents {
		t.Fatalf("frame 1: type %q err %v", typ, err)
	}
	decoded, err := DecodeFrameAppend(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d of %d events", len(decoded), len(events))
	}
	for i := range events {
		if decoded[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, decoded[i], events[i])
		}
	}

	typ, payload, scratch, err = ReadSessionFrame(br, scratch)
	if err != nil || typ != StreamFrameDecisions || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("frame 2: type %q payload %v err %v", typ, payload, err)
	}
	typ, payload, scratch, err = ReadSessionFrame(br, scratch)
	if err != nil || typ != StreamFrameClose || len(payload) != 0 {
		t.Fatalf("frame 3: type %q payload %v err %v", typ, payload, err)
	}
	if _, _, _, err = ReadSessionFrame(br, scratch); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestSessionFrameRejectsDamage(t *testing.T) {
	good := AppendSessionFrame(nil, StreamFrameEvents, []byte("payload"))
	for name, wire := range map[string][]byte{
		"truncated payload": good[:len(good)-2],
		"length only":       good[:2],
		"over-cap length": {StreamFrameEvents,
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		_, _, _, err := ReadSessionFrame(bufio.NewReader(bytes.NewReader(wire)), nil)
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// TestSessionFrameScratchReuse pins the allocation contract: for payloads
// too large to peek from the bufio buffer, feeding the returned scratch back
// in reuses one buffer across frames.
func TestSessionFrameScratchReuse(t *testing.T) {
	var wire []byte
	for i := 0; i < 8; i++ {
		wire = AppendSessionFrame(wire, StreamFrameDecisions, bytes.Repeat([]byte{byte(i)}, 64))
	}
	br := bufio.NewReaderSize(bytes.NewReader(wire), 16) // 64-byte payloads do not fit
	_, first, scratch, err := ReadSessionFrame(br, make([]byte, 0, 64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 8; i++ {
		var payload []byte
		_, payload, scratch, err = ReadSessionFrame(br, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if &payload[0] != &first[0] {
			t.Fatalf("frame %d did not reuse the scratch buffer", i)
		}
	}
}
