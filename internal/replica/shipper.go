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
// growing an unbounded send queue. It is the ingest stream's session
// framing with the roles reversed, and both channels run on the same
// connection lifecycle, internal/session: its accept loop, deadlines,
// reject and terminal writers, window clamp and dial-and-handshake.
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
	"context"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reactivespec/internal/obs"
	"reactivespec/internal/session"
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
	cfg   ShipperConfig
	conns session.Server

	mu     sync.Mutex
	states map[*shipSession]struct{} // attached followers

	shippedRecords atomic.Uint64
	shippedBytes   atomic.Uint64
	rejectedHellos atomic.Uint64
}

// shipSession is one attached follower's live lag state, kept for the
// per-follower gauges: how many durable records it still lacks, and how old
// its oldest unacknowledged record is.
type shipSession struct {
	addr string
	// acked is the follower's cumulative ack: every record below it has
	// been applied. The ack reader stores it; the ship loop and the lag
	// gauges read it.
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
	return &Shipper{cfg: cfg, states: make(map[*shipSession]struct{})}
}

func (sh *Shipper) logf(format string, args ...any) {
	if sh.cfg.Logf != nil {
		sh.cfg.Logf(format, args...)
	}
}

// Serve accepts replication sessions on ln until the listener closes (or
// Close is called). Each connection is handled on its own goroutine.
func (sh *Shipper) Serve(ln net.Listener) error { return sh.conns.Serve(ln, sh.serveConn) }

// Close stops the shipper: listeners and live sessions close, and Close
// returns once every session goroutine has exited.
func (sh *Shipper) Close() { sh.conns.Close() }

// Sessions reports the number of currently attached followers.
func (sh *Shipper) Sessions() int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return int64(len(sh.states))
}

// RegisterMetrics exposes the shipper's counters on reg.
func (sh *Shipper) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector("reactived_replication_shipper", func(e *obs.Emitter) {
		e.Family("reactived_replication_sessions", "gauge", "Attached replication followers.")
		e.SampleUint(uint64(sh.Sessions()))
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

// serveConn runs one replication session: hello, catch-up, live tail. The
// pprof labels make shipper CPU samples attributable per transport in
// -debug-addr profiles.
func (sh *Shipper) serveConn(c *session.Conn) {
	pprof.Do(context.Background(), pprof.Labels(
		"program", "all", "transport", "replication", "role", "primary",
	), func(context.Context) {
		sh.ship(c)
	})
}

func (sh *Shipper) ship(c *session.Conn) {
	reject := func(code, msg string) {
		sh.rejectedHellos.Add(1)
		c.Reject(trace.AppendReplAck(nil, trace.ReplAck{Err: &trace.StreamError{Code: code, Msg: msg}}))
	}
	hello, err := trace.ReadReplHello(c.R)
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

	// A shipper never drains (Close ends its sessions outright), so
	// Establish always admits.
	c.Establish()
	window := session.Window(hello.Window, DefaultShipWindow, MaxShipWindow)
	ack := trace.AppendReplAck(nil, trace.ReplAck{
		Proto: trace.ReplicationProtoVersion, Window: window, Oldest: oldest, Next: next,
	})
	if c.Send(ack) != nil || c.W.Flush() != nil {
		return
	}
	state := &shipSession{addr: c.RemoteAddr().String()}
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
		state.addr, hello.From, window)

	// The ack reader runs aside the ship loop: cumulative acks open the
	// window back up, a close frame (or any read failure — the connection is
	// shared state, a dead read side means a dead session) ends the session.
	ackNotify := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var scratch []byte
		for {
			typ, payload, newScratch, err := trace.ReadReplFrame(c.R, scratch)
			scratch = newScratch
			if err != nil || typ != trace.ReplFrameAck {
				return // a read failure, a close frame, or a stray frame
			}
			seq, err := trace.DecodeReplAckFrame(payload)
			if err != nil {
				return
			}
			if seq > state.acked.Load() {
				state.acked.Store(seq)
			}
			state.noteAcked(seq)
			select {
			case ackNotify <- struct{}{}:
			default:
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
			sh.logf("replication: follower %s detached at seq %d", state.addr, nextShip)
			return
		default:
		}
		// Every record below nextShip has been written to the connection,
		// so an honest follower never acks past it. One that does would
		// wrap the window arithmetic below and wedge the session with zero
		// reported lag; end it instead.
		acked := state.acked.Load()
		if acked > nextShip {
			c.Terminal(trace.StreamCodeBadFrame, fmt.Sprintf(
				"follower acked through seq %d, but only records below %d were shipped", acked, nextShip))
			sh.logf("replication: follower %s acked unshipped records (%d > %d)", state.addr, acked, nextShip)
			return
		}
		// The credit window gates the read; the reader gates durability, so
		// its io.EOF is the one "not durable yet" signal.
		rec, err := wal.Record{}, io.EOF
		if nextShip-acked < uint64(window) {
			rec, err = r.Next()
		}
		if err == io.EOF {
			if c.W.Flush() != nil {
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
			c.Terminal(trace.ReplCodeCompacted, err.Error())
			sh.logf("replication: follower %s session failed: %v", state.addr, err)
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
		if c.Send(frameBuf) != nil {
			return
		}
		sh.cfg.Trace.RecordStage(traceID, 0, "ship", rec.Program, 0, rec.Seq, now, time.Since(now))
		state.noteShipped(rec.Seq, now)
		nextShip = rec.Seq + 1
		sh.shippedRecords.Add(1)
		sh.shippedBytes.Add(uint64(len(frameBuf)))
	}
}
