package replica

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// The one replication wire, pinned byte for byte. The first six constants
// are the hex the encoders produce for the fixed inputs in
// TestReplicationWireGolden: the proto-2 hello, a grant ack, a compacted
// rejection ack, one 'S' record frame, one cumulative 'A' ack frame and one
// terminal frame. The last two are what a Shipper actually answers a
// follower resuming from seq 0 of a one-record log: its grant ack, and the
// record frame with the ship timestamp masked as x's (the primary's wall
// clock is the one field a fixed input cannot pin).
const (
	goldenReplHello    = "52535248020a0710"
	goldenReplGrant    = "525352410002100309"
	goldenReplReject   = "525352410109636f6d706163746564057374616c65"
	goldenReplRecord   = "5318070c8094ebdc0308036d636652535054010302050802070b"
	goldenReplAck      = "41010c"
	goldenReplTerminal = "540f096261645f6672616d650473616d65"

	goldenShipperAck    = "525352410002100001"
	goldenShipperRecord = "531d00" + "01" + "xxxxxxxxxxxxxxxxxx" + "00" + "04677a6970" + "52535054010302050802070b"
)

// TestReplicationWireGolden pins every replication byte both ways: what the
// encoders produce for fixed inputs, and what a live Shipper writes.
func TestReplicationWireGolden(t *testing.T) {
	expect := func(what string, got []byte, want string) {
		t.Helper()
		if hex.EncodeToString(got) != want {
			t.Fatalf("%s bytes changed:\n got %x\nwant %s", what, got, want)
		}
	}
	frame := trace.EncodeFrameAppend(nil, []trace.Event{
		{Branch: 1, Taken: true, Gap: 2}, {Branch: 5, Taken: false, Gap: 1}, {Branch: 1, Taken: true, Gap: 5},
	})
	expect("hello", trace.AppendReplHello(nil, trace.ReplHello{
		Proto: trace.ReplicationProtoVersion, ParamsHash: 10, From: 7, Window: 16,
	}), goldenReplHello)
	expect("grant ack", trace.AppendReplAck(nil, trace.ReplAck{
		Proto: trace.ReplicationProtoVersion, Window: 16, Oldest: 3, Next: 9,
	}), goldenReplGrant)
	expect("rejection ack", trace.AppendReplAck(nil, trace.ReplAck{
		Err: &trace.StreamError{Code: trace.ReplCodeCompacted, Msg: "stale"},
	}), goldenReplReject)
	expect("record frame", trace.AppendReplRecord(nil, trace.ReplRecord{
		Seq: 7, Durable: 12, ShippedUnixNanos: 1e9, Trace: 8, Program: "mcf", Frame: frame,
	}), goldenReplRecord)
	expect("ack frame", trace.AppendReplAckFrame(nil, 12), goldenReplAck)
	expect("terminal frame", trace.AppendSessionFrame(nil, trace.StreamFrameTerminal,
		trace.AppendStreamError(nil, trace.StreamError{Code: trace.StreamCodeBadFrame, Msg: "same"})), goldenReplTerminal)

	// A live Shipper over a one-record log.
	params := testParams()
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), ParamsHash: server.ParamsHash(params), Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendPayload("gzip", frame); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(ShipperConfig{Log: l, Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sh.Serve(ln)
	t.Cleanup(func() { sh.Close(); l.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := conn.Write(trace.AppendReplHello(nil, trace.ReplHello{
		Proto: trace.ReplicationProtoVersion, ParamsHash: server.ParamsHash(params), From: 0, Window: 16,
	})); err != nil {
		t.Fatal(err)
	}
	readN := func(what string, n int) []byte {
		t.Helper()
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			t.Fatalf("%s: reading %d bytes: %v", what, n, err)
		}
		return b
	}
	expect("shipper ack", readN("shipper ack", len(goldenShipperAck)/2), goldenShipperAck)

	before := uint64(time.Now().UnixNano())
	got := hex.EncodeToString(readN("shipper record", len(goldenShipperRecord)/2))
	// Mask the ship timestamp: it follows the type, length, seq and durable
	// bytes, and must be a wall-clock reading no later than now.
	at := strings.Index(goldenShipperRecord, "x")
	stamp, err := hex.DecodeString(got[at : at+18])
	if err != nil {
		t.Fatal(err)
	}
	if ns, n := binary.Uvarint(stamp); n != len(stamp) || ns > uint64(time.Now().UnixNano()) || ns+uint64(time.Minute) < before {
		t.Fatalf("shipper record timestamp %x is not a current wall-clock reading", stamp)
	}
	masked := got[:at] + strings.Repeat("x", 18) + got[at+18:]
	if masked != goldenShipperRecord {
		t.Fatalf("shipper record bytes changed:\n got %s\nwant %s", masked, goldenShipperRecord)
	}
}

// TestShipperEndsAckAheadSession pins the guard against a follower acking
// records it was never shipped: the session ends with a bad_frame terminal
// instead of wedging on a wrapped-around window with zero reported lag.
func TestShipperEndsAckAheadSession(t *testing.T) {
	p := startPrimary(t, 2)
	for i := 0; i < 3; i++ {
		if _, err := p.log.AppendPayload("gzip", trace.EncodeFrameAppend(nil, synthEvents(10, uint64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.log.Commit(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", p.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := conn.Write(trace.AppendReplHello(nil, trace.ReplHello{
		Proto: trace.ReplicationProtoVersion, ParamsHash: server.ParamsHash(testParams()), Window: 1,
	})); err != nil {
		t.Fatal(err)
	}
	if ack, err := trace.ReadReplAck(br); err != nil || ack.Err != nil {
		t.Fatalf("hello: %v, %+v", err, ack)
	}
	// A window of one: record 0 arrives, then the shipper waits for an ack.
	typ, _, _, err := trace.ReadReplFrame(br, nil)
	if err != nil || typ != trace.ReplFrameRecord {
		t.Fatalf("first frame: type %q, %v; want a record", typ, err)
	}
	if _, err := conn.Write(trace.AppendReplAckFrame(nil, 1000)); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := trace.ReadReplFrame(br, nil)
	if err != nil {
		t.Fatalf("after the ack-ahead: %v; want a terminal frame", err)
	}
	if typ != trace.StreamFrameTerminal {
		t.Fatalf("after the ack-ahead: type %q; want a terminal frame", typ)
	}
	se, err := trace.DecodeStreamError(payload)
	if err != nil || se.Code != trace.StreamCodeBadFrame {
		t.Fatalf("terminal = %+v, %v; want bad_frame", se, err)
	}
}
