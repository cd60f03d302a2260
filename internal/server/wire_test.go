package server

import (
	"bufio"
	"encoding/hex"
	"net"
	"testing"
	"time"

	"reactivespec/internal/trace"
)

// The one stream wire, pinned byte for byte. Every constant below is the
// hex of what a client writes or the server answers for the fixed inputs in
// TestStreamWireGolden: the proto-4 handshake and its ack, an 'E' frame
// carrying a trace context, a kind tag and a trace blob, the run-length 'd'
// frame answering it, and the plain 'D' frame the server falls back to for a
// one-event frame (where run-length encoding would not shrink the payload).
const (
	goldenHandshake = "52534853048694a293ce99aaf8b5011006677a69704030"
	goldenAck       = "525348410004108694a293ce99aaf8b501"
	goldenEvents    = "45382a01525350540118000302040206020902020204020702080d0202050206020802030204020602090d020204020702080202020502060208"
	goldenRLE       = "6403181800"
	goldenPlain     = "44020100"
)

// wireEvents is the fixed event frame of the golden session: 24 events over
// eight branches with mixed outcomes and gaps.
func wireEvents() []trace.Event {
	evs := make([]trace.Event, 24)
	for i := range evs {
		evs[i] = trace.Event{Branch: trace.BranchID(i % 8), Taken: i%3 == 0, Gap: uint32(1 + i%4)}
	}
	return evs
}

// wireConn opens a raw TCP connection to a stream listener serving s.
func wireConn(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go s.ServeStream(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, bufio.NewReader(conn)
}

// expectBytes reads len(want) raw bytes from br and compares them to want.
func expectBytes(t *testing.T, br *bufio.Reader, what, want string) {
	t.Helper()
	got := make([]byte, len(want)/2)
	if _, err := readFull(br, got); err != nil {
		t.Fatalf("%s: reading %d bytes: %v", what, len(got), err)
	}
	if hex.EncodeToString(got) != want {
		t.Fatalf("%s bytes changed:\n got %x\nwant %s", what, got, want)
	}
}

// expectEncoding compares an encoder's output to its golden hex.
func expectEncoding(t *testing.T, what string, got []byte, want string) {
	t.Helper()
	if hex.EncodeToString(got) != want {
		t.Fatalf("%s encoding changed:\n got %x\nwant %s", what, got, want)
	}
}

// TestStreamWireGolden drives one session over the raw wire and pins every
// byte both ways: what the encoders produce for fixed inputs, and what the
// server answers.
func TestStreamWireGolden(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 4})
	conn, br := wireConn(t, s)

	hs := trace.AppendHandshake(nil, trace.Handshake{
		Proto: trace.StreamProtoVersion, ParamsHash: s.paramsHash, Window: 16, Program: "gzip@0",
	})
	expectEncoding(t, "handshake", hs, goldenHandshake)
	expectEncoding(t, "ack", trace.AppendAck(nil, trace.Ack{
		Proto: trace.StreamProtoVersion, Window: 16, ParamsHash: s.paramsHash,
	}), goldenAck)
	if _, err := conn.Write(hs); err != nil {
		t.Fatal(err)
	}
	expectBytes(t, br, "ack", goldenAck)

	payload := trace.AppendKind(trace.AppendTraceContext(nil, 0x2a), trace.KindValue)
	events := trace.AppendSessionFrame(nil, trace.StreamFrameEvents, trace.EncodeFrameAppend(payload, wireEvents()))
	expectEncoding(t, "events frame", events, goldenEvents)
	if _, err := conn.Write(events); err != nil {
		t.Fatal(err)
	}
	expectBytes(t, br, "RLE decisions frame", goldenRLE)

	// One event: the plain payload (count + one byte) is shorter than the
	// run-length one (count + run + byte), so the server answers 'D'.
	one := trace.AppendSessionFrame(nil, trace.StreamFrameEvents,
		trace.EncodeFrameAppend(trace.AppendKind(trace.AppendTraceContext(nil, 0), trace.KindValue), wireEvents()[:1]))
	if _, err := conn.Write(one); err != nil {
		t.Fatal(err)
	}
	expectBytes(t, br, "plain decisions frame", goldenPlain)
}

// TestStreamWireRejectsOtherProtos pins that the server speaks exactly one
// stream protocol: a handshake at any neighbouring version — or at proto 4
// with the change-only session-flag bit (1<<16) an older build understood —
// gets a proto_mismatch ack instead of a session.
func TestStreamWireRejectsOtherProtos(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 2})
	for _, proto := range []uint32{1, 2, 3, 5, trace.StreamProtoVersion | 1<<16} {
		conn, br := wireConn(t, s)
		hs := trace.Handshake{Proto: proto, ParamsHash: s.paramsHash, Window: 4, Program: "p"}
		if _, err := conn.Write(trace.AppendHandshake(nil, hs)); err != nil {
			t.Fatal(err)
		}
		ack, err := trace.ReadAck(br)
		if err != nil {
			t.Fatalf("proto %#x: ReadAck: %v", proto, err)
		}
		if ack.Err == nil || ack.Err.Code != trace.StreamCodeProtoMismatch {
			t.Fatalf("proto %#x: ack = %+v, want a proto_mismatch reject", proto, ack)
		}
	}
}
