// Package session runs the connection lifecycle that both raw-TCP channels
// share — the ingest stream (internal/server) and WAL replication
// (internal/replica): the accept loop and its live-connection set, drain and
// close, one hello deadline and one write deadline, the buffered
// reader/writer pair, the reject and terminal writers, the credit-window
// clamp, and the client's dial-and-handshake. The bytes on the wire are
// internal/trace's; what a session does between its hello and its terminal
// frame is the caller's.
package session

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"reactivespec/internal/trace"
)

const (
	// HandshakeTimeout bounds a hello/ack exchange: how long an accepted
	// connection may take to present its hello, and how long a dialer waits
	// for the ack.
	HandshakeTimeout = 10 * time.Second
	// WriteTimeout bounds every Send, so a stalled peer cannot pin a session
	// goroutine (or block drain) forever.
	WriteTimeout = 30 * time.Second

	bufSize = 1 << 16
)

// ErrClosed is Serve's error once Close has been called.
var ErrClosed = errors.New("session: server closed")

// Conn is one session connection and its buffered reader/writer pair. One
// goroutine writes; another may read R.
type Conn struct {
	R *bufio.Reader
	W *bufio.Writer

	nc   net.Conn
	srv  *Server // nil on a dialed connection
	live bool    // guarded by srv.mu: Establish admitted the session
	buf  []byte  // terminal-frame scratch
}

func newConn(nc net.Conn) *Conn {
	return &Conn{R: bufio.NewReaderSize(nc, bufSize), W: bufio.NewWriterSize(nc, bufSize), nc: nc}
}

// RemoteAddr is the peer's address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Close closes the connection.
func (c *Conn) Close() error { return c.nc.Close() }

// Send queues b on W under WriteTimeout; W flushes to the wire when full, and
// the caller flushes the rest.
func (c *Conn) Send(b []byte) error {
	c.nc.SetWriteDeadline(time.Now().Add(WriteTimeout))
	_, err := c.W.Write(b)
	return err
}

// Reject answers a hello with its encoded rejection ack. The caller then
// returns, which closes the connection.
func (c *Conn) Reject(ack []byte) {
	if c.Send(ack) == nil {
		c.W.Flush()
	}
}

// Terminal ends an established session with a terminal frame carrying code
// and msg, so the peer learns why instead of seeing a bare close.
func (c *Conn) Terminal(code, msg string) {
	c.buf = trace.AppendSessionFrame(c.buf[:0], trace.StreamFrameTerminal,
		trace.AppendStreamError(nil, trace.StreamError{Code: code, Msg: msg}))
	c.Reject(c.buf)
}

// Establish admits an accepted connection as a live session once its hello
// has been accepted: the hello deadline is cleared, and the session counts
// toward Live and Wait until its handler returns. It fails once the server
// is draining; the caller then rejects the hello.
func (c *Conn) Establish() bool {
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	c.nc.SetReadDeadline(time.Time{})
	c.live = true
	if s.live == 0 {
		s.idle = make(chan struct{})
	}
	s.live++
	return true
}

// Draining reports whether the server that accepted c is draining. A
// handler whose read fails checks it to end with a draining terminal.
func (c *Conn) Draining() bool {
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	return c.srv.draining
}

// Window grants a credit window: the requested one, or def when none was
// requested, capped at max.
func Window(requested, def, max uint32) uint32 {
	if requested == 0 {
		requested = def
	}
	return min(requested, max)
}

// Server accepts session connections and tracks them so they can be drained
// or closed. The zero value is ready to use.
type Server struct {
	mu       sync.Mutex
	lns      map[net.Listener]struct{}
	conns    map[*Conn]struct{}
	live     int           // established sessions
	idle     chan struct{} // closed when live falls to zero
	draining bool
	closed   bool
	wg       sync.WaitGroup // one per running handler
}

// Serve accepts connections on ln until Accept fails or Close is called, and
// runs handle on its own goroutine for each. A connection starts with
// HandshakeTimeout as its read deadline and is closed when handle returns.
func (s *Server) Serve(ln net.Listener, handle func(*Conn)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	if s.lns == nil {
		s.lns = make(map[net.Listener]struct{})
		s.conns = make(map[*Conn]struct{})
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		nc.SetReadDeadline(time.Now().Add(HandshakeTimeout))
		c := newConn(nc)
		c.srv = s
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return ErrClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			handle(c)
			nc.Close()
			s.mu.Lock()
			delete(s.conns, c)
			if c.live {
				if s.live--; s.live == 0 {
					close(s.idle)
				}
			}
			s.mu.Unlock()
		}()
	}
}

// Live reports how many sessions are established.
func (s *Server) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Drain makes Establish fail from now on and wakes every established
// session's blocked read with a past deadline; its handler sees Draining and
// ends the session with a terminal frame.
func (s *Server) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	for c := range s.conns {
		if c.live {
			c.nc.SetReadDeadline(time.Now())
		}
	}
}

// Wait blocks until no session is established or ctx ends.
func (s *Server) Wait(ctx context.Context) error {
	for {
		s.mu.Lock()
		n, idle := s.live, s.idle
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-idle:
		case <-ctx.Done():
			return fmt.Errorf("%d sessions still open: %w", n, ctx.Err())
		}
	}
}

// Close stops every Serve loop and closes every connection, then returns once
// every handler has returned.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// TCP returns the dial function for Dial that connects to addr over TCP.
func TCP(addr string) func(context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

// Dial opens a client session: it dials, writes hello and reads the peer's
// answer with readAck, within HandshakeTimeout and while ctx lasts. On
// success the deadline is cleared and the session is ready for frames; on
// failure the connection is closed. A rejection the peer answers cleanly is
// readAck's to report, in the ack.
func Dial[A any](ctx context.Context, dial func(context.Context) (net.Conn, error),
	hello []byte, readAck func(*bufio.Reader) (A, error)) (*Conn, A, error) {
	var ack A
	nc, err := dial(ctx)
	if err != nil {
		return nil, ack, err
	}
	// ctx ending — its deadline included — cuts the exchange short.
	nc.SetDeadline(time.Now().Add(HandshakeTimeout))
	stop := context.AfterFunc(ctx, func() { nc.SetDeadline(time.Now()) })
	c := newConn(nc)
	_, err = c.W.Write(hello)
	if err == nil {
		err = c.W.Flush()
	}
	if err != nil {
		err = fmt.Errorf("writing hello: %w", err)
	} else if ack, err = readAck(c.R); err != nil {
		err = fmt.Errorf("reading ack: %w", err)
	}
	if !stop() {
		err = ctx.Err()
	}
	if err != nil {
		nc.Close()
		var zero A
		return nil, zero, err
	}
	nc.SetDeadline(time.Time{})
	return c, ack, nil
}
