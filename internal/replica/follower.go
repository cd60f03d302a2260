package replica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"reactivespec/internal/obs"
	"reactivespec/internal/trace"
)

// Follower states, in the order a healthy session moves through them.
const (
	// StateConnecting: dialing the primary (including between reconnect
	// attempts after a transient failure).
	StateConnecting = "connecting"
	// StateCatchup: applying historical records; the primary's durable
	// boundary is still ahead.
	StateCatchup = "catchup"
	// StateStreaming: applied up to the primary's durable boundary as of the
	// last shipped record; records now arrive as the primary fsyncs them.
	StateStreaming = "streaming"
	// StateSealed: Seal was called (promotion); no further record will be
	// applied.
	StateSealed = "sealed"
	// StateFailed: a permanent error (parameter mismatch, compaction gap,
	// sequence divergence) stopped replication; Err() has the cause.
	StateFailed = "failed"
)

const (
	// reconnectMin/Max bound the dial backoff after transient failures.
	reconnectMin = 50 * time.Millisecond
	reconnectMax = 2 * time.Second
	// followerAckTimeout bounds the handshake round trip.
	followerAckTimeout = 10 * time.Second
)

// FollowerConfig configures a Follower.
type FollowerConfig struct {
	// Addr is the primary's replication listener address.
	Addr string
	// ParamsHash is the replica's controller-parameter hash; the primary
	// rejects a mismatch at hello time.
	ParamsHash uint64
	// NextSeq returns the next WAL sequence the replica needs — the resume
	// point of every (re)connect. With a replica server this is its own
	// WAL's NextSeq: the follower logs records before applying, so the
	// resume point is exactly what survived locally.
	NextSeq func() uint64
	// Apply applies one shipped record: frame is its trace frame payload
	// exactly as the primary logged it, not yet decoded, and only valid
	// until Apply returns. It must decode the frame, refuse it if it does
	// not decode, and log-then-apply (the replica server's ApplyReplicated)
	// so NextSeq advances with it; it returns the record's event count.
	// traceID is the record's span-trace context (zero when the originating
	// batch was untraced).
	Apply func(program string, frame []byte, traceID uint64) (int, error)
	// Window is the requested credit window (0 = primary's default).
	Window uint32
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Trace, when non-nil, records trace-less "repl_connect" spans timing
	// each dial-plus-handshake, so reconnect storms show up in span dumps.
	Trace *obs.Tracer
	// Dial, when non-nil, replaces the default TCP dial (tests).
	Dial func(ctx context.Context) (net.Conn, error)
}

// Follower maintains a replication session with a primary: connect, catch
// up, stream, reconnect on transient failures — until sealed for promotion
// or stopped by a permanent error.
type Follower struct {
	cfg    FollowerConfig
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	conn   net.Conn // live session's connection, for Seal to interrupt
	err    error    // permanent failure, once set
	sealed bool

	state           atomic.Value // string
	lastApplied     atomic.Uint64
	lagRecords      atomic.Uint64
	lagNanos        atomic.Int64
	receivedRecords atomic.Uint64
	receivedEvents  atomic.Uint64
	receivedBytes   atomic.Uint64
	reconnects      atomic.Uint64

	done chan struct{}
}

// errPermanent wraps session failures that reconnecting cannot fix.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

// StartFollower starts replicating from cfg.Addr and returns immediately;
// the session runs on its own goroutine. Done() closes when the follower
// stops for good (sealed or failed); Err() reports a permanent failure.
func StartFollower(cfg FollowerConfig) *Follower {
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{cfg: cfg, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	f.state.Store(StateConnecting)
	f.lastApplied.Store(cfg.NextSeq())
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer close(f.done)
		// The pprof labels make follower CPU samples attributable per
		// transport in -debug-addr profiles.
		pprof.Do(context.Background(), pprof.Labels(
			"program", "all", "transport", "replication", "role", "replica",
		), func(context.Context) {
			f.run()
		})
	}()
	return f
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// State names the follower's current phase (see the State constants).
func (f *Follower) State() string { return f.state.Load().(string) }

// LastApplied returns the sequence number one past the last applied record.
func (f *Follower) LastApplied() uint64 { return f.lastApplied.Load() }

// Err returns the permanent failure that stopped the follower, or nil.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Done closes when the follower has stopped for good: sealed, or failed
// permanently.
func (f *Follower) Done() <-chan struct{} { return f.done }

// Seal stops replication and returns the sequence one past the last applied
// record. It blocks until no further Apply call can be in flight — exactly
// what Server.Promote needs before flipping writable — and is idempotent.
// Sealing a follower that already failed permanently still succeeds: failover
// to whatever replicated is precisely the promote-under-duress scenario.
func (f *Follower) Seal() (uint64, error) {
	f.mu.Lock()
	f.sealed = true
	if f.conn != nil {
		f.conn.Close() // wake a blocked frame read
	}
	f.mu.Unlock()
	f.cancel()
	f.wg.Wait()
	f.state.Store(StateSealed)
	return f.lastApplied.Load(), nil
}

// RegisterMetrics exposes the follower's lag and throughput on reg.
func (f *Follower) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector("reactived_replication_follower", func(e *obs.Emitter) {
		e.Family("reactived_replication_lag_records", "gauge",
			"Records the primary had made durable but this replica had not applied, as of the last shipped record.")
		e.SampleUint(f.lagRecords.Load())
		e.Family("reactived_replication_lag_seconds", "gauge",
			"Age of the last shipped record when it was applied (primary clock minus replica clock skew applies).")
		e.Sample(float64(f.lagNanos.Load()) / 1e9)
		e.Family("reactived_replication_received_records_total", "counter", "Records received from the primary.")
		e.SampleUint(f.receivedRecords.Load())
		e.Family("reactived_replication_received_events_total", "counter", "Events received from the primary.")
		e.SampleUint(f.receivedEvents.Load())
		e.Family("reactived_replication_received_bytes_total", "counter", "Bytes of record payloads received.")
		e.SampleUint(f.receivedBytes.Load())
		e.Family("reactived_replication_reconnects_total", "counter", "Replication session reconnect attempts.")
		e.SampleUint(f.reconnects.Load())
		e.Family("reactived_replication_state", "gauge", "Follower session state, one-hot by state label.")
		cur := f.State()
		for _, st := range []string{StateConnecting, StateCatchup, StateStreaming, StateSealed, StateFailed} {
			v := uint64(0)
			if st == cur {
				v = 1
			}
			e.SampleUint(v, "state", st)
		}
	})
}

// run is the reconnect loop: each session either ends transiently (dial
// failure, connection loss, primary draining/restarting) and is retried with
// backoff, or permanently (mismatch, compaction gap, divergence) and stops
// the follower.
func (f *Follower) run() {
	backoff := reconnectMin
	for {
		if f.ctx.Err() != nil {
			return
		}
		err := f.session()
		if f.ctx.Err() != nil {
			return
		}
		var perm errPermanent
		if errors.As(err, &perm) {
			f.mu.Lock()
			f.err = perm.err
			f.mu.Unlock()
			f.state.Store(StateFailed)
			f.logf("replication: follower stopped: %v", perm.err)
			return
		}
		f.state.Store(StateConnecting)
		f.reconnects.Add(1)
		if err != nil {
			f.logf("replication: session ended (%v); reconnecting in %v", err, backoff)
		}
		select {
		case <-time.After(backoff):
		case <-f.ctx.Done():
			return
		}
		if backoff *= 2; backoff > reconnectMax {
			backoff = reconnectMax
		}
	}
}

// dial opens the session connection.
func (f *Follower) dial() (net.Conn, error) {
	if f.cfg.Dial != nil {
		return f.cfg.Dial(f.ctx)
	}
	var d net.Dialer
	return d.DialContext(f.ctx, "tcp", f.cfg.Addr)
}

// session runs one connection to completion. A nil or plain error asks the
// run loop to reconnect; an errPermanent stops the follower.
func (f *Follower) session() error {
	conn, err := f.dial()
	if err != nil {
		return err
	}
	f.mu.Lock()
	if f.sealed {
		f.mu.Unlock()
		conn.Close()
		return nil
	}
	f.conn = conn
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
		conn.Close()
	}()

	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)

	connectStart := time.Now()
	from := f.cfg.NextSeq()
	conn.SetDeadline(time.Now().Add(followerAckTimeout))
	hello := trace.AppendReplHello(nil, trace.ReplHello{
		Proto: trace.ReplicationProtoVersion, ParamsHash: f.cfg.ParamsHash,
		From: from, Window: f.cfg.Window,
	})
	if _, err := bw.Write(hello); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	ack, err := trace.ReadReplAck(br)
	if err != nil {
		return err
	}
	if ack.Err != nil {
		return f.classify(*ack.Err)
	}
	if ack.Proto != trace.ReplicationProtoVersion {
		return errPermanent{fmt.Errorf("replica: primary acked protocol %d, follower speaks %d",
			ack.Proto, trace.ReplicationProtoVersion)}
	}
	conn.SetDeadline(time.Time{})
	if f.cfg.Trace.SampleInfra() {
		f.cfg.Trace.RecordInfra("repl_connect", connectStart, time.Since(connectStart))
	}
	if from < ack.Next {
		f.state.Store(StateCatchup)
		f.logf("replication: catching up [%d, %d) from %s", from, ack.Next, f.cfg.Addr)
	} else {
		f.state.Store(StateStreaming)
	}

	var (
		scratch  []byte
		ackBuf   []byte
		expected = from
	)
	for {
		typ, payload, newScratch, err := trace.ReadReplFrame(br, scratch)
		scratch = newScratch
		if err != nil {
			return err
		}
		switch typ {
		case trace.ReplFrameRecord:
			rec, err := trace.DecodeReplRecord(payload)
			if err != nil {
				return fmt.Errorf("replica: decoding shipped record: %w", err)
			}
			if rec.Seq != expected {
				// The primary and replica disagree about the sequence;
				// applying anyway would silently diverge decisions.
				return errPermanent{fmt.Errorf(
					"replica: primary shipped seq %d, replica expected %d — logs have diverged", rec.Seq, expected)}
			}
			nEvents, err := f.cfg.Apply(rec.Program, rec.Frame, rec.Trace)
			if err != nil {
				return errPermanent{fmt.Errorf("replica: applying record %d: %w", rec.Seq, err)}
			}
			expected = rec.Seq + 1
			f.lastApplied.Store(expected)
			f.receivedRecords.Add(1)
			f.receivedEvents.Add(uint64(nEvents))
			f.receivedBytes.Add(uint64(len(payload)))
			if rec.Durable > expected {
				f.lagRecords.Store(rec.Durable - expected)
				f.state.Store(StateCatchup)
			} else {
				f.lagRecords.Store(0)
				f.state.Store(StateStreaming)
			}
			if lag := time.Now().UnixNano() - int64(rec.ShippedUnixNanos); lag > 0 {
				f.lagNanos.Store(lag)
			} else {
				f.lagNanos.Store(0)
			}
			ackBuf = trace.AppendReplAckFrame(ackBuf[:0], expected)
			conn.SetWriteDeadline(time.Now().Add(shipWriteTimeout))
			if _, err := bw.Write(ackBuf); err != nil {
				return err
			}
			// Flush acks only when no further record is already buffered: a
			// full catch-up stream acks in batches, the live tail acks
			// immediately.
			if br.Buffered() == 0 {
				if err := bw.Flush(); err != nil {
					return err
				}
			}
		case trace.StreamFrameTerminal:
			se, err := trace.DecodeStreamError(payload)
			if err != nil {
				return fmt.Errorf("replica: malformed terminal frame: %w", err)
			}
			return f.classify(se)
		default:
			return fmt.Errorf("replica: unexpected replication frame type %q", typ)
		}
	}
}

// classify sorts a primary-sent StreamError into permanent (stop) and
// transient (reconnect) failures.
func (f *Follower) classify(se trace.StreamError) error {
	switch se.Code {
	case trace.StreamCodeParamMismatch, trace.StreamCodeProtoMismatch,
		trace.ReplCodeCompacted, trace.StreamCodeMalformed:
		return errPermanent{fmt.Errorf("replica: primary rejected the session: %w", &se)}
	}
	// draining, internal, bye: the primary is going away or restarting;
	// reconnect and resume.
	return fmt.Errorf("replica: session terminated by primary: %w", &se)
}
