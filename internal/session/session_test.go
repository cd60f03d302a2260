package session

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"reactivespec/internal/trace"
)

// echoHandler speaks a toy protocol: a one-byte hello, answered by a
// one-byte ack ('+' admitted, '-' refused), then it echoes bytes until its
// read fails, ending with a terminal frame.
func echoHandler(c *Conn) {
	if _, err := c.R.ReadByte(); err != nil {
		return
	}
	if !c.Establish() {
		c.Reject([]byte{'-'})
		return
	}
	if c.Send([]byte{'+'}) != nil || c.W.Flush() != nil {
		return
	}
	for {
		b, err := c.R.ReadByte()
		if err != nil {
			if c.Draining() {
				c.Terminal(trace.StreamCodeDraining, "bye")
			}
			return
		}
		if c.Send([]byte{b}) != nil || c.W.Flush() != nil {
			return
		}
	}
}

// serve starts s on a fresh loopback listener and returns its address and
// the channel Serve's error arrives on.
func serve(t *testing.T, s *Server) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln, echoHandler) }()
	t.Cleanup(s.Close)
	return ln.Addr().String(), served
}

func readAck(r *bufio.Reader) (byte, error) { return r.ReadByte() }

// open dials addr and completes the toy handshake.
func open(t *testing.T, addr string) (*Conn, byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, ack, err := Dial(ctx, TCP(addr), []byte{'h'}, readAck)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, ack
}

func TestWaitReturnsWhenTheLastSessionEnds(t *testing.T) {
	var s Server
	addr, _ := serve(t, &s)
	a, ack := open(t, addr)
	if ack != '+' {
		t.Fatalf("ack %q, want '+'", ack)
	}
	b, _ := open(t, addr)
	if n := s.Live(); n != 2 {
		t.Fatalf("Live = %d, want 2", n)
	}
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Wait(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait with two live sessions = %v, want a deadline error", err)
	}

	waited := make(chan error, 1)
	go func() { waited <- s.Wait(context.Background()) }()
	a.Close()
	b.Close()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after every session ended")
	}
	if n := s.Live(); n != 0 {
		t.Fatalf("Live = %d after Wait, want 0", n)
	}
}

func TestDrainEndsSessionsAndRefusesNewOnes(t *testing.T) {
	var s Server
	addr, _ := serve(t, &s)
	c, _ := open(t, addr)
	// A session mid-exchange: one byte echoed.
	if c.Send([]byte{'x'}) != nil || c.W.Flush() != nil {
		t.Fatal("send failed")
	}
	if b, err := c.R.ReadByte(); err != nil || b != 'x' {
		t.Fatalf("echo = %q, %v", b, err)
	}

	s.Drain()
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, _, err := trace.ReadSessionFrame(c.R, nil)
	if err != nil || typ != trace.StreamFrameTerminal {
		t.Fatalf("after Drain: type %q, %v; want a terminal frame", typ, err)
	}
	if se, err := trace.DecodeStreamError(payload); err != nil || se.Code != trace.StreamCodeDraining {
		t.Fatalf("terminal = %+v, %v; want draining", se, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// A session that arrives while draining is answered, not served.
	if _, ack := open(t, addr); ack != '-' {
		t.Fatalf("ack while draining %q, want '-'", ack)
	}
	if n := s.Live(); n != 0 {
		t.Fatalf("Live = %d while draining, want 0", n)
	}
}

func TestCloseStopsServeAndWaitsForHandlers(t *testing.T) {
	var s Server
	addr, served := serve(t, &s)
	c, _ := open(t, addr)
	// A connection still in its hello counts for Close too.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	s.Close()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("Serve returned nil after Close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve still running after Close")
	}
	if n := s.Live(); n != 0 {
		t.Fatalf("Live = %d after Close, want 0", n)
	}
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.R.ReadByte(); err != io.EOF {
		t.Fatalf("established session read after Close = %v, want io.EOF", err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("pending hello read after Close = %v, want io.EOF", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(ln, echoHandler); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve after Close = %v, want ErrClosed", err)
	}
}

func TestDialStopsWhenContextEnds(t *testing.T) {
	// A peer that accepts and never answers the hello.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, _, err = Dial(ctx, TCP(ln.Addr().String()), []byte{'h'}, readAck)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Dial = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > HandshakeTimeout/2 {
		t.Fatalf("Dial took %v to notice the cancellation", d)
	}
}

func TestWindow(t *testing.T) {
	for _, tc := range []struct{ requested, def, max, want uint32 }{
		{0, 32, 1024, 32},
		{1, 32, 1024, 1},
		{1024, 32, 1024, 1024},
		{1025, 32, 1024, 1024},
		{0, 256, 4096, 256},
		{^uint32(0), 256, 4096, 4096},
	} {
		if got := Window(tc.requested, tc.def, tc.max); got != tc.want {
			t.Errorf("Window(%d, %d, %d) = %d, want %d", tc.requested, tc.def, tc.max, got, tc.want)
		}
	}
}
