// Package replica ships a primary's write-ahead log to read-only follower
// daemons and keeps them promotable: the Shipper serves the segmented log
// over a raw TCP listener (historical catch-up first, then live appends as
// they become durable), and the Follower connects out, applies every shipped
// record through the replica server's log-before-apply path, and can be
// sealed at any moment to promote the replica into a primary.
//
// The wire format lives in internal/trace (replication.go): a pinned
// handshake — protocol revision, controller-parameter hash, resume sequence —
// then 'S' record frames one way and cumulative 'A' acks the other, bounded
// by a credit window so a slow follower exerts backpressure instead of
// growing an unbounded send queue.
//
// Replication never ships a record the primary has not fsynced: each session
// reads the log through a live wal.Reader, which yields only records below
// the log's durable boundary (wal.Log.DurableSeq), so a promoted follower can
// only ever be a prefix of what the primary acknowledged — never a superset
// containing writes the primary would lose in a crash. Under wal.SyncNever
// the boundary only advances on segment rotation and explicit syncs, and
// replication inherits that granularity.
package replica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reactivespec/internal/obs"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

const (
	// DefaultShipWindow is the credit window granted when the follower's
	// hello does not request one: how many shipped records may be
	// unacknowledged before the shipper pauses.
	DefaultShipWindow = 256
	// MaxShipWindow caps the grantable window.
	MaxShipWindow = 4096
	// helloTimeout bounds how long a new connection may take to present its
	// hello before the shipper hangs up.
	helloTimeout = 10 * time.Second
	// shipWriteTimeout bounds every record write so a dead follower cannot
	// pin a session goroutine.
	shipWriteTimeout = 30 * time.Second
)

// ShipperConfig configures a Shipper.
type ShipperConfig struct {
	// Log is the primary's write-ahead log. Records are shipped only once
	// they are below Log.DurableSeq().
	Log *wal.Log
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Trace, when non-nil, records a "ship" span for every record whose
	// ingest batch was traced (the tracer's seq→trace side table re-attaches
	// the trace ID the WAL does not store).
	Trace *obs.Tracer
}

// Shipper serves the primary side of replication sessions: one goroutine per
// attached follower, each running an independent live WAL reader.
type Shipper struct {
	cfg ShipperConfig

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	states map[*shipSession]struct{}
	closed bool
	wg     sync.WaitGroup

	sessions       atomic.Int64
	shippedRecords atomic.Uint64
	shippedBytes   atomic.Uint64
	rejectedHellos atomic.Uint64
}

// shipSession is one attached follower's live lag state, kept for the
// per-follower gauges: how many durable records it still lacks, and how old
// its oldest unacknowledged record is.
type shipSession struct {
	addr  string
	acked atomic.Uint64

	mu       sync.Mutex
	inflight []shipMark // FIFO: shipped, not yet acked
}

// shipMark remembers when one record left the primary.
type shipMark struct {
	seq uint64
	at  time.Time
}

// noteShipped records that seq left the wire now.
func (ss *shipSession) noteShipped(seq uint64, at time.Time) {
	ss.mu.Lock()
	ss.inflight = append(ss.inflight, shipMark{seq: seq, at: at})
	ss.mu.Unlock()
}

// noteAcked drops every in-flight mark the cumulative ack covers.
func (ss *shipSession) noteAcked(ackedSeq uint64) {
	ss.mu.Lock()
	i := 0
	for i < len(ss.inflight) && ss.inflight[i].seq < ackedSeq {
		i++
	}
	ss.inflight = ss.inflight[i:]
	ss.mu.Unlock()
}

// lagSeconds is the age of the oldest unacknowledged shipped record, zero
// when the follower is fully caught up with everything shipped.
func (ss *shipSession) lagSeconds(now time.Time) float64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if len(ss.inflight) == 0 {
		return 0
	}
	return now.Sub(ss.inflight[0].at).Seconds()
}

// NewShipper returns a shipper over cfg.Log. Serve it on one or more
// listeners; Close stops everything.
func NewShipper(cfg ShipperConfig) *Shipper {
	return &Shipper{
		cfg:    cfg,
		lns:    make(map[net.Listener]struct{}),
		conns:  make(map[net.Conn]struct{}),
		states: make(map[*shipSession]struct{}),
	}
}

func (sh *Shipper) logf(format string, args ...any) {
	if sh.cfg.Logf != nil {
		sh.cfg.Logf(format, args...)
	}
}

// Serve accepts replication sessions on ln until the listener closes (or
// Close is called). Each connection is handled on its own goroutine.
func (sh *Shipper) Serve(ln net.Listener) error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		ln.Close()
		return errors.New("replica: shipper closed")
	}
	sh.lns[ln] = struct{}{}
	sh.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			sh.mu.Lock()
			delete(sh.lns, ln)
			sh.mu.Unlock()
			return err
		}
		sh.mu.Lock()
		if sh.closed {
			sh.mu.Unlock()
			conn.Close()
			return errors.New("replica: shipper closed")
		}
		sh.conns[conn] = struct{}{}
		sh.wg.Add(1)
		sh.mu.Unlock()
		go func() {
			defer sh.wg.Done()
			sh.serveConn(conn)
			sh.mu.Lock()
			delete(sh.conns, conn)
			sh.mu.Unlock()
		}()
	}
}

// Close stops the shipper: listeners and live sessions close, and Close
// returns once every session goroutine has exited.
func (sh *Shipper) Close() {
	sh.mu.Lock()
	sh.closed = true
	for ln := range sh.lns {
		ln.Close()
	}
	for conn := range sh.conns {
		conn.Close()
	}
	sh.mu.Unlock()
	sh.wg.Wait()
}

// Sessions reports the number of currently attached followers.
func (sh *Shipper) Sessions() int64 { return sh.sessions.Load() }

// Shipped reports lifetime shipped record and byte totals.
func (sh *Shipper) Shipped() (records, bytes uint64) {
	return sh.shippedRecords.Load(), sh.shippedBytes.Load()
}

// RegisterMetrics exposes the shipper's counters on reg.
func (sh *Shipper) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector("reactived_replication_shipper", func(e *obs.Emitter) {
		e.Family("reactived_replication_sessions", "gauge", "Attached replication followers.")
		e.SampleUint(uint64(sh.sessions.Load()))
		e.Family("reactived_replication_shipped_records_total", "counter", "WAL records shipped to followers.")
		e.SampleUint(sh.shippedRecords.Load())
		e.Family("reactived_replication_shipped_bytes_total", "counter", "Bytes of record frames shipped to followers.")
		e.SampleUint(sh.shippedBytes.Load())
		e.Family("reactived_replication_rejected_hellos_total", "counter", "Replication hellos rejected at handshake.")
		e.SampleUint(sh.rejectedHellos.Load())

		// Per-follower lag, in records and in seconds, labeled by the
		// follower's remote address. Records lag compares the primary's
		// durable boundary against the follower's cumulative ack; seconds
		// lag is the age of the oldest record shipped but not yet acked.
		sh.mu.Lock()
		states := make([]*shipSession, 0, len(sh.states))
		for ss := range sh.states {
			states = append(states, ss)
		}
		sh.mu.Unlock()
		sort.Slice(states, func(i, j int) bool { return states[i].addr < states[j].addr })
		durable := sh.cfg.Log.DurableSeq()
		now := time.Now()
		e.Family("reactived_replication_follower_lag_records", "gauge",
			"Durable WAL records the follower has not yet acknowledged, per attached follower.")
		for _, ss := range states {
			lag := uint64(0)
			if acked := ss.acked.Load(); durable > acked {
				lag = durable - acked
			}
			e.SampleUint(lag, "follower", ss.addr)
		}
		e.Family("reactived_replication_follower_lag_seconds", "gauge",
			"Age of the oldest shipped-but-unacknowledged record, per attached follower.")
		for _, ss := range states {
			e.Sample(ss.lagSeconds(now), "follower", ss.addr)
		}
	})
}

// FollowerLag reports one attached follower's lag in records and seconds;
// ok is false when no follower matches addr ("" matches any single
// follower). Tests and the expvar block use it without a registry scrape.
func (sh *Shipper) FollowerLag(addr string) (records uint64, seconds float64, ok bool) {
	sh.mu.Lock()
	var match *shipSession
	for ss := range sh.states {
		if addr == "" || ss.addr == addr {
			match = ss
			break
		}
	}
	sh.mu.Unlock()
	if match == nil {
		return 0, 0, false
	}
	durable := sh.cfg.Log.DurableSeq()
	if acked := match.acked.Load(); durable > acked {
		records = durable - acked
	}
	return records, match.lagSeconds(time.Now()), true
}

// serveConn runs one replication session: hello, catch-up, live tail. The
// pprof labels make shipper CPU samples attributable per transport in
// -debug-addr profiles.
func (sh *Shipper) serveConn(conn net.Conn) {
	pprof.Do(context.Background(), pprof.Labels(
		"program", "all", "transport", "replication", "role", "primary",
	), func(context.Context) {
		sh.serveConnLabeled(conn)
	})
}

func (sh *Shipper) serveConnLabeled(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)

	var wireBuf []byte
	writeWire := func(b []byte) error {
		conn.SetWriteDeadline(time.Now().Add(shipWriteTimeout))
		_, err := bw.Write(b)
		return err
	}
	reject := func(code, msg string) {
		sh.rejectedHellos.Add(1)
		wireBuf = trace.AppendReplAck(wireBuf[:0], trace.ReplAck{Err: &trace.StreamError{Code: code, Msg: msg}})
		if writeWire(wireBuf) == nil {
			bw.Flush()
		}
	}

	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	hello, err := trace.ReadReplHello(br)
	if err != nil {
		return // no coherent hello; nothing to answer in
	}
	log := sh.cfg.Log
	oldest, next := log.OldestSeq(), log.NextSeq()
	switch {
	case hello.Proto != trace.ReplicationProtoVersion:
		reject(trace.StreamCodeProtoMismatch, fmt.Sprintf(
			"follower speaks replication protocol %d, primary speaks %d",
			hello.Proto, trace.ReplicationProtoVersion))
		return
	case hello.ParamsHash != log.ParamsHash():
		reject(trace.StreamCodeParamMismatch, fmt.Sprintf(
			"follower controller params hash %016x != primary %016x", hello.ParamsHash, log.ParamsHash()))
		return
	case hello.From < oldest:
		reject(trace.ReplCodeCompacted, fmt.Sprintf(
			"records [%d, %d) were compacted away; the primary retains [%d, %d) — "+
				"a full resync (fresh snapshot, empty wal directory) is required", hello.From, oldest, oldest, next))
		return
	case hello.From > next:
		reject(trace.StreamCodeMalformed, fmt.Sprintf(
			"from-sequence %d is beyond the log end %d (the follower holds records this primary never wrote)",
			hello.From, next))
		return
	}
	window := hello.Window
	if window == 0 {
		window = DefaultShipWindow
	}
	if window > MaxShipWindow {
		window = MaxShipWindow
	}

	r, err := wal.NewReader(wal.ReaderOptions{
		Dir:        log.Dir(),
		ParamsHash: log.ParamsHash(),
		From:       hello.From,
		Live:       log,
		FrameOnly:  true,
	})
	if err != nil {
		// The hello-time range check raced a compaction; the message the
		// reader carries already names the full-resync remedy.
		reject(trace.ReplCodeCompacted, err.Error())
		return
	}
	defer r.Close()

	wireBuf = trace.AppendReplAck(wireBuf[:0], trace.ReplAck{
		Proto: trace.ReplicationProtoVersion, Window: window, Oldest: oldest, Next: next,
	})
	if writeWire(wireBuf) != nil || bw.Flush() != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	sh.sessions.Add(1)
	defer sh.sessions.Add(-1)
	state := &shipSession{addr: conn.RemoteAddr().String()}
	state.acked.Store(hello.From)
	sh.mu.Lock()
	sh.states[state] = struct{}{}
	sh.mu.Unlock()
	defer func() {
		sh.mu.Lock()
		delete(sh.states, state)
		sh.mu.Unlock()
	}()
	sh.logf("replication: follower %s attached from seq %d (window %d)",
		conn.RemoteAddr(), hello.From, window)

	terminal := func(code, msg string) {
		wireBuf = trace.AppendSessionFrame(wireBuf[:0], trace.StreamFrameTerminal,
			trace.AppendStreamError(nil, trace.StreamError{Code: code, Msg: msg}))
		if writeWire(wireBuf) == nil {
			bw.Flush()
		}
	}

	// The ack reader runs aside the ship loop: cumulative acks open the
	// window back up, a close frame (or any read failure — the connection is
	// shared state, a dead read side means a dead session) ends the session.
	var acked atomic.Uint64
	acked.Store(hello.From)
	ackNotify := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var scratch []byte
		for {
			typ, payload, newScratch, err := trace.ReadReplFrame(br, scratch)
			scratch = newScratch
			if err != nil {
				return
			}
			switch typ {
			case trace.ReplFrameAck:
				seq, err := trace.DecodeReplAckFrame(payload)
				if err != nil {
					return
				}
				if seq > acked.Load() {
					acked.Store(seq)
					state.acked.Store(seq)
				}
				state.noteAcked(seq)
				select {
				case ackNotify <- struct{}{}:
				default:
				}
			case trace.StreamFrameClose:
				return
			default:
				return
			}
		}
	}()

	// Subscribed before the first read: a durability advance after any
	// io.EOF leaves a signal in the channel's one coalescing slot.
	durNotify, cancelDur := log.SubscribeDurable()
	defer cancelDur()

	nextShip := hello.From
	var frameBuf []byte
	for {
		select {
		case <-done:
			sh.logf("replication: follower %s detached at seq %d", conn.RemoteAddr(), nextShip)
			return
		default:
		}
		// The credit window gates the read; the reader gates durability, so
		// its io.EOF is the one "not durable yet" signal.
		rec, err := wal.Record{}, io.EOF
		if nextShip-acked.Load() < uint64(window) {
			rec, err = r.Next()
		}
		if err == io.EOF {
			if bw.Flush() != nil {
				return
			}
			select {
			case <-durNotify:
			case <-ackNotify:
			case <-done:
			}
			continue
		}
		if err != nil {
			// A live reader only fails permanently: it fell behind
			// compaction, records are missing, or the log is damaged — the
			// session must full-resync.
			terminal(trace.ReplCodeCompacted, err.Error())
			sh.logf("replication: follower %s session failed: %v", conn.RemoteAddr(), err)
			return
		}
		now := time.Now()
		traceID := sh.cfg.Trace.TraceForSeq(rec.Seq)
		frameBuf = trace.AppendReplRecord(frameBuf[:0], trace.ReplRecord{
			Seq:              rec.Seq,
			Durable:          log.DurableSeq(),
			ShippedUnixNanos: uint64(now.UnixNano()),
			Trace:            traceID,
			Program:          rec.Program,
			Frame:            rec.Frame,
		})
		if writeWire(frameBuf) != nil {
			return
		}
		sh.cfg.Trace.RecordStage(traceID, 0, "ship", rec.Program, 0, rec.Seq, now, time.Since(now))
		state.noteShipped(rec.Seq, now)
		nextShip = rec.Seq + 1
		sh.shippedRecords.Add(1)
		sh.shippedBytes.Add(uint64(len(frameBuf)))
	}
}
