package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// TestHandshakeRejectsDamage runs all four hello/ack decoders over the same
// damage: a cut at every byte (so inside and between every field), a bad
// magic, the other messages' magics, an unknown ack status, a uint32 field
// out of range, and an over-cap string. Each must fail with
// ErrBadHandshake, never decode.
func TestHandshakeRejectsDamage(t *testing.T) {
	read := map[string]func([]byte) error{
		"handshake":  decodeErr(ReadHandshake),
		"ack":        decodeErr(ReadAck),
		"repl hello": decodeErr(ReadReplHello),
		"repl ack":   decodeErr(ReadReplAck),
	}
	// Valid messages, and each one's bytes with one uint32 field replaced by
	// 1<<32 (built here by hand, not by the encoder under test).
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	const big = 1 << 32
	rej := &StreamError{Code: StreamCodeParamMismatch, Msg: "hash 1 != 2"}
	valid := map[string][][]byte{
		"handshake": {
			AppendHandshake(nil, Handshake{Proto: StreamProtoVersion, ParamsHash: 42, Window: 4, Program: "p"}),
		},
		"ack": {
			AppendAck(nil, Ack{Proto: StreamProtoVersion, Window: 32, ParamsHash: 99}),
			AppendAck(nil, Ack{Err: rej}),
		},
		"repl hello": {
			AppendReplHello(nil, ReplHello{Proto: ReplicationProtoVersion, ParamsHash: 42, From: 300, Window: 16}),
		},
		"repl ack": {
			AppendReplAck(nil, ReplAck{Proto: ReplicationProtoVersion, Window: 256, Oldest: 10, Next: 999}),
			AppendReplAck(nil, ReplAck{Err: rej}),
		},
	}
	damaged := map[string]map[string][]byte{
		"handshake": {
			"proto out of range":  append([]byte("RSHS"), append(uv(big, 42, 4, 1), 'p')...),
			"window out of range": append([]byte("RSHS"), append(uv(4, 42, big, 1), 'p')...),
			"overlong program":    append([]byte("RSHS"), uv(4, 42, 4, MaxHandshakeProgram+1)...),
		},
		"ack": {
			"proto out of range":  append([]byte("RSHA\x00"), uv(big, 32, 99)...),
			"window out of range": append([]byte("RSHA\x00"), uv(4, big, 99)...),
			"overlong error code": append([]byte("RSHA\x01"), uv(maxStreamErrorText+1)...),
		},
		"repl hello": {
			"proto out of range":  append([]byte("RSRH"), uv(big, 42, 300, 16)...),
			"window out of range": append([]byte("RSRH"), uv(2, 42, 300, big)...),
		},
		"repl ack": {
			"proto out of range":  append([]byte("RSRA\x00"), uv(big, 256, 10, 999)...),
			"window out of range": append([]byte("RSRA\x00"), uv(2, big, 10, 999)...),
			"overlong error code": append([]byte("RSRA\x01"), uv(maxStreamErrorText+1)...),
		},
	}
	for name, wires := range valid {
		for _, wire := range wires {
			if err := read[name](wire); err != nil {
				t.Fatalf("%s: the valid message fails: %v", name, err)
			}
			for n := 0; n < len(wire); n++ {
				damaged[name][fmt.Sprintf("cut at byte %d of %x", n, wire)] = wire[:n]
			}
			damaged[name]["bad magic "+string(wire[4:])] = append([]byte("XXXX"), wire[4:]...)
			for other, magic := range map[string]string{"handshake": "RSHS", "ack": "RSHA", "repl hello": "RSRH", "repl ack": "RSRA"} {
				if other != name {
					damaged[name]["magic "+magic+string(wire[4:])] = append([]byte(magic), wire[4:]...)
				}
			}
			if name == "ack" || name == "repl ack" {
				status := append([]byte(nil), wire...)
				status[4] = 2
				damaged[name][fmt.Sprintf("status 2 in %x", wire)] = status
			}
		}
	}
	for name, cases := range damaged {
		for what, wire := range cases {
			if err := read[name](wire); !errors.Is(err, ErrBadHandshake) {
				t.Errorf("%s, %s: err = %v, want ErrBadHandshake", name, what, err)
			}
		}
	}
}

// decodeErr adapts a hello/ack decoder to report only its error.
func decodeErr[T any](read func(*bufio.Reader) (T, error)) func([]byte) error {
	return func(b []byte) error {
		_, err := read(bufio.NewReader(bytes.NewReader(b)))
		return err
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
