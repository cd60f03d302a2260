package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"reactivespec/internal/trace"
)

// streamBatches splits evs into batches of size batch.
func streamBatches(evs []trace.Event, batch int) [][]trace.Event {
	var out [][]trace.Event
	for off := 0; off < len(evs); off += batch {
		end := off + batch
		if end > len(evs) {
			end = len(evs)
		}
		out = append(out, evs[off:end])
	}
	return out
}

// streamAddr starts a raw TCP stream listener serving s for the rest of the
// test and returns its address.
func streamAddr(t testing.TB, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go s.ServeStream(ln)
	return ln.Addr().String()
}

// openStream dials a session for program on a fresh raw stream listener
// serving s, pinned to s's parameter hash.
func openStream(t testing.TB, s *Server, program string, opts ...StreamOption) (*Stream, error) {
	t.Helper()
	return DialStream(context.Background(), streamAddr(t, s), program, s.paramsHash, opts...)
}

// runSession pushes every batch through st pipelined (sender goroutine,
// receiver in the caller) and returns the concatenated decisions.
func runSession(t *testing.T, st *Stream, batches [][]trace.Event) []Decision {
	t.Helper()
	ctx := context.Background()
	sendErr := make(chan error, 1)
	go func() {
		for _, b := range batches {
			if err := st.SendKind(ctx, trace.KindBranch, b); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	var got []Decision
	for range batches {
		ds, err := st.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		got = append(got, ds...)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("Send: %v", err)
	}
	return got
}

// TestStreamMatchesIngest pins the tentpole equivalence: a streaming session
// produces byte-identical decisions to POST /v1/ingest for the same event
// sequence, across shard counts and pipeline window sizes.
func TestStreamMatchesIngest(t *testing.T) {
	evs := synthEvents(20_000, 11)
	const batch = 1000
	for _, shards := range []int{1, 4, 16} {
		// The POST reference for this shard count.
		_, postC := newTestServer(t, Config{Shards: shards})
		var want []Decision
		for _, b := range streamBatches(evs, batch) {
			ds, err := postC.IngestKind(context.Background(), "gzip", trace.KindBranch, b)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ds...)
		}
		for _, window := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("shards=%d/window=%d", shards, window), func(t *testing.T) {
				s, _ := newTestServer(t, Config{Shards: shards})
				st, err := openStream(t, s, "gzip", WithStreamWindow(window))
				if err != nil {
					t.Fatalf("DialStream: %v", err)
				}
				if st.Window() != window {
					t.Fatalf("granted window %d, requested %d", st.Window(), window)
				}
				got := runSession(t, st, streamBatches(evs, batch))
				if err := st.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				if len(got) != len(want) {
					t.Fatalf("%d decisions, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("decision %d = %v, want %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestStreamRawTCPListener drives a session over ServeStream's raw listener,
// with the hash looked up over HTTP, and pins it to the same decisions as
// the table.
func TestStreamRawTCPListener(t *testing.T) {
	s, c := newTestServer(t, Config{Shards: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeStream(ln)

	info, err := c.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hash, err := ParseInfoParamsHash(info)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DialStream(context.Background(), ln.Addr().String(), "raw", hash, WithStreamWindow(8))
	if err != nil {
		t.Fatalf("DialStream: %v", err)
	}
	evs := synthEvents(5000, 7)
	got := runSession(t, st, streamBatches(evs, 500))
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	tab := NewTable(s.cfg.Params, 1)
	var instr uint64
	want := applyAll(tab, "raw", evs, &instr)
	if len(got) != len(want) {
		t.Fatalf("%d decisions, want %d", len(got), len(want))
	}
	for i, d := range got {
		if d.Encode() != want[i] {
			t.Fatalf("decision %d = %v, want encoded %#x", i, d, want[i])
		}
	}
}

// TestStreamSnapshotWhileStreaming interleaves snapshots with an active
// session: both must succeed, and the snapshot must land on disk.
func TestStreamSnapshotWhileStreaming(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 4, SnapshotDir: t.TempDir()})
	st, err := openStream(t, s, "snap", WithStreamWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	evs := synthEvents(30_000, 3)
	batches := streamBatches(evs, 500)

	var wg sync.WaitGroup
	wg.Add(1)
	snapErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := s.SnapshotNow(); err != nil {
				snapErr <- err
				return
			}
		}
		snapErr <- nil
	}()
	got := runSession(t, st, batches)
	wg.Wait()
	if err := <-snapErr; err != nil {
		t.Fatalf("SnapshotNow during streaming: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(got) != len(evs) {
		t.Fatalf("%d decisions for %d events", len(got), len(evs))
	}
	snap, err := LoadSnapshot(s.cfg.SnapshotDir)
	if err != nil || snap == nil {
		t.Fatalf("LoadSnapshot = %v, %v; want a snapshot", snap, err)
	}
}

// TestStreamDrainSendsTerminal pins the lifecycle contract: BeginDrain ends
// an idle session with a terminal "draining" frame, so the client observes
// ErrDraining — a typed error, not a connection reset.
func TestStreamDrainSendsTerminal(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 2})
	st, err := openStream(t, s, "drain")
	if err != nil {
		t.Fatal(err)
	}
	// One working round trip before the drain.
	if err := st.SendKind(context.Background(), trace.KindBranch, synthEvents(100, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(context.Background()); err != nil {
		t.Fatal(err)
	}

	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := st.Recv(ctx); !errors.Is(err, ErrDraining) {
		t.Fatalf("Recv after drain = %v, want ErrDraining", err)
	}
	if err := st.SendKind(ctx, trace.KindBranch, synthEvents(10, 2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Send after drain = %v, want ErrDraining", err)
	}
	if err := st.Close(); !errors.Is(err, ErrDraining) {
		t.Fatalf("Close after drain = %v, want ErrDraining", err)
	}
	// The server side must also settle: the session left the registry.
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer waitCancel()
	if err := s.WaitStreams(waitCtx); err != nil {
		t.Fatalf("WaitStreams: %v", err)
	}

	// New sessions are refused while draining, with the typed error.
	if _, err := openStream(t, s, "late"); !errors.Is(err, ErrDraining) {
		t.Fatalf("DialStream while draining = %v, want ErrDraining", err)
	}
}

// TestStreamHandshakeParamMismatch pins the typed rejection of a handshake
// whose controller-parameter hash differs from the server's.
func TestStreamHandshakeParamMismatch(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 2})
	_, err := DialStream(context.Background(), streamAddr(t, s), "p", 0xdeadbeef)
	if !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("DialStream with wrong hash = %v, want ErrParamsMismatch", err)
	}
}

// TestStreamHandshakeProtoMismatch drives the raw wire format directly: a
// handshake with an unknown protocol version gets a typed reject ack.
// TestStreamWireRejectsOtherProtos covers every version next to the one the
// server speaks.
func TestStreamHandshakeProtoMismatch(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeStream(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hs := trace.Handshake{Proto: 0, ParamsHash: s.paramsHash, Program: "p"}
	if _, err := conn.Write(trace.AppendHandshake(nil, hs)); err != nil {
		t.Fatal(err)
	}
	ack, err := trace.ReadAck(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("ReadAck: %v", err)
	}
	if ack.Err == nil || ack.Err.Code != trace.StreamCodeProtoMismatch {
		t.Fatalf("ack = %+v, want proto_mismatch reject", ack)
	}
}

// TestStreamRejectFrameKeepsSession sends a corrupt event payload inside an
// intact session frame: the server answers a reject for that frame and the
// session keeps working.
func TestStreamRejectFrameKeepsSession(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeStream(ln)

	st, err := DialStream(context.Background(), ln.Addr().String(), "p", s.paramsHash)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Reach under the client: write a session frame whose event payload is
	// garbage (valid session framing, corrupt trace frame inside).
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	br := bufio.NewReader(raw)
	if _, err := raw.Write(trace.AppendHandshake(nil,
		trace.Handshake{Proto: trace.StreamProtoVersion, ParamsHash: s.paramsHash, Program: "q"})); err != nil {
		t.Fatal(err)
	}
	if ack, err := trace.ReadAck(br); err != nil || ack.Err != nil {
		t.Fatalf("handshake: %v, %+v", err, ack)
	}
	if _, err := raw.Write(trace.AppendSessionFrame(nil, trace.StreamFrameEvents,
		[]byte("not a trace frame"))); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err := trace.ReadSessionFrame(br, nil)
	if err != nil {
		t.Fatalf("reading reject: %v", err)
	}
	if typ != trace.StreamFrameReject {
		t.Fatalf("frame type %q, want reject", typ)
	}
	// The session survived the rejection: a valid frame still applies. The
	// payload leads with a trace context (zero = untraced) and a kind tag.
	good := trace.EncodeFrameAppend(
		trace.AppendKind(trace.AppendTraceContext(nil, 0), trace.KindBranch),
		synthEvents(10, 4))
	if _, err := raw.Write(trace.AppendSessionFrame(nil, trace.StreamFrameEvents, good)); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := trace.ReadSessionFrame(br, nil)
	if err != nil {
		t.Fatalf("after reject: %v", err)
	}
	// The server may coalesce ('d') or fall back to plain ('D'); both forms
	// decode to the same decisions.
	var ds []Decision
	switch typ {
	case trace.StreamFrameDecisions:
		ds, err = decodeDecisionsPayload(payload)
	case trace.StreamFrameDecisionsRLE:
		var raw []byte
		if raw, err = trace.DecodeDecisionsRLE(payload, nil); err == nil {
			ds, err = decisionsFromBytes(raw)
		}
	default:
		t.Fatalf("after reject: type %q; want a decisions frame", typ)
	}
	if err != nil || len(ds) != 10 {
		t.Fatalf("decisions after reject = %d, %v; want 10", len(ds), err)
	}
}

// TestStreamSessionDropsLargeScratch pins that one huge frame does not pin
// its size for the rest of a session: after a 2Mi-event frame and a small
// one, with the session still open, the live heap is back within 2 MiB of
// what it was before the huge frame. Kept, the session's payload, decision
// and wire buffers alone would hold at least 8 MiB. The client is a raw
// connection that keeps no buffers, so the growth measured is the server's.
func TestStreamSessionDropsLargeScratch(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 2})
	raw, err := net.Dial("tcp", streamAddr(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	br := bufio.NewReader(raw)
	if _, err := raw.Write(trace.AppendHandshake(nil,
		trace.Handshake{Proto: trace.StreamProtoVersion, ParamsHash: s.paramsHash, Program: "p"})); err != nil {
		t.Fatal(err)
	}
	if ack, err := trace.ReadAck(br); err != nil || ack.Err != nil {
		t.Fatalf("handshake: %v, %+v", err, ack)
	}
	send := func(n int, seed uint64) {
		t.Helper()
		payload := trace.EncodeFrameAppend(
			trace.AppendKind(trace.AppendTraceContext(nil, 0), trace.KindBranch),
			synthEvents(n, seed))
		if _, err := raw.Write(trace.AppendSessionFrame(nil, trace.StreamFrameEvents, payload)); err != nil {
			t.Fatal(err)
		}
		typ, _, _, err := trace.ReadSessionFrame(br, nil)
		if err != nil {
			t.Fatalf("reading the answer to a %d-event frame: %v", n, err)
		}
		if typ != trace.StreamFrameDecisions && typ != trace.StreamFrameDecisionsRLE {
			t.Fatalf("answer to a %d-event frame has type %q; want a decisions frame", n, typ)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	send(64, 1)
	before := liveHeap()
	send(1<<21, 2)
	send(64, 3)
	if after := liveHeap(); after > before+2<<20 {
		t.Fatalf("live heap grew from %d to %d bytes across one huge frame; the session kept its buffers",
			before, after)
	}
}

// TestStreamCloseRemovesSession checks the registry bookkeeping around a
// clean close.
func TestStreamCloseRemovesSession(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 2})
	st, err := openStream(t, s, "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SendKind(context.Background(), trace.KindBranch, synthEvents(50, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := s.ActiveStreams(); n != 1 {
		t.Fatalf("ActiveStreams = %d, want 1", n)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitStreams(ctx); err != nil {
		t.Fatalf("WaitStreams after close: %v", err)
	}
	// Recv after a clean close reports end-of-session, not an error.
	if _, err := st.Recv(context.Background()); err != io.EOF {
		t.Fatalf("Recv after close = %v, want io.EOF", err)
	}
}

// TestStreamCloseUnblocksAbandonedSession pins the abort path: a receiver
// that stops Recv'ing mid-session wedges the stream reader (its results
// buffer fills, so no more window credits come back) and thereby any Send
// waiting on credit. Close must discard the undelivered results, fail the
// blocked Send, and still complete the bye handshake — not deadlock.
func TestStreamCloseUnblocksAbandonedSession(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 2})
	ctx := context.Background()
	st, err := openStream(t, s, "p", WithStreamWindow(2))
	if err != nil {
		t.Fatal(err)
	}
	evs := synthEvents(64, 3)
	// Far more frames than two windows' worth: with no Recv ever issued,
	// the sender is guaranteed to end up blocked on window credit.
	sendDone := make(chan error, 1)
	go func() {
		for i := 0; i < 16; i++ {
			if err := st.SendKind(ctx, trace.KindBranch, evs); err != nil {
				sendDone <- err
				return
			}
		}
		sendDone <- nil
	}()

	closeDone := make(chan error, 1)
	go func() { closeDone <- st.Close() }()
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked on an abandoned session")
	}
	select {
	case err := <-sendDone:
		if err == nil {
			t.Fatal("all sends succeeded without a receiver; sender never blocked")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sender still blocked after Close")
	}
}

// TestStreamTwoSessionsOnOneListener drives a second session while the
// first is open on the same raw listener: both are registered and both
// apply.
func TestStreamTwoSessionsOnOneListener(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 2})
	addr := streamAddr(t, s)
	st1, err := DialStream(context.Background(), addr, "a", s.paramsHash)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := DialStream(context.Background(), addr, "b", s.paramsHash)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.ActiveStreams(); n != 2 {
		t.Fatalf("ActiveStreams = %d, want 2", n)
	}
	for _, st := range []*Stream{st1, st2} {
		if err := st.SendKind(context.Background(), trace.KindBranch, synthEvents(20, 5)); err != nil {
			t.Fatal(err)
		}
		if ds, err := st.Recv(context.Background()); err != nil || len(ds) != 20 {
			t.Fatalf("Recv = %d decisions, %v", len(ds), err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
