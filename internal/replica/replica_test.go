package replica

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"reactivespec/internal/core"
	"reactivespec/internal/obs"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

func testParams() core.Params { return core.DefaultParams().Scaled(200) }

// synthEvents mirrors the server package's deterministic event generator so
// cross-package equivalence tests drive identical streams.
func synthEvents(n int, seed uint64) []trace.Event {
	evs := make([]trace.Event, 0, n)
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < n; i++ {
		r := next()
		id := trace.BranchID(r % 24)
		var taken bool
		switch {
		case id < 8:
			taken = next()%500 != 0
		case id < 16:
			taken = (i/700)%2 == 0
		default:
			taken = next()%2 == 0
		}
		evs = append(evs, trace.Event{Branch: id, Taken: taken, Gap: uint32(1 + r%9)})
	}
	return evs
}

// primaryEnv is a full primary: WAL-backed server, HTTP client, and a
// shipper on its own listener.
type primaryEnv struct {
	srv     *server.Server
	client  *server.Client
	log     *wal.Log
	shipper *Shipper
	ln      net.Listener
	ts      *httptest.Server
}

func startPrimary(t *testing.T, shards int) *primaryEnv {
	return startPrimarySeg(t, shards, 0)
}

// startPrimarySeg is startPrimary with a segment-size override (small
// segments force rotations, which compaction needs).
func startPrimarySeg(t *testing.T, shards int, segBytes int64) *primaryEnv {
	t.Helper()
	params := testParams()
	l, err := wal.Open(wal.Options{
		Dir: t.TempDir(), ParamsHash: server.ParamsHash(params), Policy: wal.SyncAlways,
		SegmentBytes: segBytes,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s := server.New(server.Config{Params: params, Shards: shards, SnapshotDir: t.TempDir(), WAL: l, Logf: t.Logf})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	sh := NewShipper(ShipperConfig{Log: l, Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sh.Serve(ln)
	t.Cleanup(func() { sh.Close(); l.Close() })
	return &primaryEnv{srv: s, client: server.Connect(ts.URL, server.WithHTTPClient(ts.Client())), log: l, shipper: sh, ln: ln, ts: ts}
}

// kill simulates a primary crash: the shipper, its listener, and the HTTP
// front end all go away at once.
func (p *primaryEnv) kill() {
	p.ts.CloseClientConnections()
	p.ts.Close()
	p.shipper.Close()
	p.ln.Close()
}

// replicaEnv is a read-only replica daemon: its own WAL-backed server, an
// HTTP client, and a follower attached to a primary.
type replicaEnv struct {
	srv      *server.Server
	client   *server.Client
	log      *wal.Log
	follower *Follower
}

func startReplica(t *testing.T, shards int, addr string, window uint32) *replicaEnv {
	t.Helper()
	params := testParams()
	l, err := wal.Open(wal.Options{
		Dir: t.TempDir(), ParamsHash: server.ParamsHash(params), Policy: wal.SyncAlways,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s := server.New(server.Config{Params: params, Shards: shards, SnapshotDir: t.TempDir(), WAL: l, Replica: true, Logf: t.Logf})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	f := StartFollower(FollowerConfig{
		Addr:       addr,
		ParamsHash: server.ParamsHash(params),
		NextSeq:    l.NextSeq,
		Apply:      s.ApplyReplicated,
		Window:     window,
		Logf:       t.Logf,
	})
	s.SetSealFunc(f.Seal)
	t.Cleanup(func() { f.Seal(); l.Close() })
	return &replicaEnv{srv: s, client: server.Connect(ts.URL, server.WithHTTPClient(ts.Client())), log: l, follower: f}
}

// waitApplied blocks until the follower has applied through seq (the
// primary's NextSeq), or the deadline trips.
func waitApplied(t *testing.T, f *Follower, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for f.LastApplied() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("follower stalled at seq %d, want %d (state %s, err %v)",
				f.LastApplied(), seq, f.State(), f.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicationCatchupAndLiveTail attaches a follower to a primary that
// already holds records (catch-up), keeps ingesting (live tail), and pins
// the replica's table state and decisions to the primary's.
func TestReplicationCatchupAndLiveTail(t *testing.T) {
	p := startPrimary(t, 4)
	ctx := context.Background()

	// Records that exist before the follower attaches: the catch-up phase.
	for i := 0; i < 5; i++ {
		if _, err := p.client.IngestKind(ctx, "gzip", trace.KindBranch, synthEvents(300, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	r := startReplica(t, 4, p.ln.Addr().String(), 8)

	// Records appended while attached: the live tail, two programs.
	for i := 5; i < 10; i++ {
		if _, err := p.client.IngestKind(ctx, "gzip", trace.KindBranch, synthEvents(300, uint64(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := p.client.IngestKind(ctx, "vpr", trace.KindBranch, synthEvents(200, uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, r.follower, p.log.NextSeq())

	if got, want := r.srv.Table().SnapshotEntries(), p.srv.Table().SnapshotEntries(); len(got) != len(want) {
		t.Fatalf("replica has %d entries, primary %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("entry %d diverges: replica %+v primary %+v", i, got[i], want[i])
			}
		}
	}
	// Cursor accounting matches: the failover resume point is exact.
	pc, err := p.client.Cursor(ctx, "gzip", trace.KindBranch)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := r.client.Cursor(ctx, "gzip", trace.KindBranch)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Events != rc.Events || pc.Instr != rc.Instr || pc.Events != 3000 {
		t.Fatalf("cursors diverge: primary %+v replica %+v", pc, rc)
	}
	// The replica serves decisions.
	pd, err := p.client.DecideKind(ctx, "gzip", trace.KindBranch, 3)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := r.client.DecideKind(ctx, "gzip", trace.KindBranch, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pd != rd {
		t.Fatalf("decide diverges: primary %+v replica %+v", pd, rd)
	}
	if st := r.follower.State(); st != StateStreaming {
		t.Fatalf("follower state %q after catch-up, want %q", st, StateStreaming)
	}

	// Replication metrics are live on both sides.
	reg := obs.NewRegistry()
	p.shipper.RegisterMetrics(reg)
	r.follower.RegisterMetrics(reg)
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	m := sb.String()
	for _, want := range []string{
		"reactived_replication_sessions 1",
		"reactived_replication_shipped_records_total 15",
		"reactived_replication_received_records_total 15",
		"reactived_replication_lag_records 0",
		`reactived_replication_state{state="streaming"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestFollowerParamsMismatch pins the handshake guard: a follower whose
// controller parameters differ is rejected permanently — no retry loop, a
// typed state, a diagnostic naming both hashes.
func TestFollowerParamsMismatch(t *testing.T) {
	p := startPrimary(t, 2)
	f := StartFollower(FollowerConfig{
		Addr:       p.ln.Addr().String(),
		ParamsHash: server.ParamsHash(testParams()) + 1,
		NextSeq:    func() uint64 { return 0 },
		Apply:      func(string, []byte, uint64) (int, error) { return 0, nil },
		Logf:       t.Logf,
	})
	defer f.Seal()
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("mismatched follower did not stop")
	}
	if f.State() != StateFailed {
		t.Fatalf("state %q, want failed", f.State())
	}
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), "params hash") {
		t.Fatalf("error %v does not name the params hash", err)
	}
}

// TestFollowerBehindCompaction pins the mid-compaction connect: a follower
// resuming below the primary's retained range is told, permanently and in
// plain words, that it needs a full resync.
func TestFollowerBehindCompaction(t *testing.T) {
	p := startPrimarySeg(t, 2, 1<<12)
	ctx := context.Background()
	// Rotate segments, then snapshot: the snapshot compacts the log so
	// sequence 0 is gone.
	for i := 0; i < 20; i++ {
		if _, err := p.client.IngestKind(ctx, "gzip", trace.KindBranch, synthEvents(2000, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.client.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if p.log.OldestSeq() == 0 {
		t.Fatal("compaction retained sequence 0; segment rotation did not trigger")
	}

	f := StartFollower(FollowerConfig{
		Addr:       p.ln.Addr().String(),
		ParamsHash: server.ParamsHash(testParams()),
		NextSeq:    func() uint64 { return 0 },
		Apply:      func(string, []byte, uint64) (int, error) { return 0, nil },
		Logf:       t.Logf,
	})
	defer f.Seal()
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("compacted-behind follower did not stop")
	}
	if f.State() != StateFailed {
		t.Fatalf("state %q, want failed", f.State())
	}
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), "full resync") {
		t.Fatalf("error %v does not name the full-resync remedy", err)
	}
}

// TestFollowerResumeInAlignGap pins a resume point inside a sequence gap
// AlignSeq left on the primary (a snapshot anchored past the log's end): the
// records the follower needs never existed, so the session must fail at once
// with the compacted terminal, naming the missing range and the full-resync
// remedy, instead of waiting in catch-up for records that cannot arrive.
func TestFollowerResumeInAlignGap(t *testing.T) {
	p := startPrimary(t, 2)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := p.client.IngestKind(ctx, "gzip", trace.KindBranch, synthEvents(100, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.log.NextSeq(); got != 3 {
		t.Fatalf("primary holds %d records, want 3", got)
	}
	if err := p.log.AlignSeq(8); err != nil {
		t.Fatal(err)
	}

	f := StartFollower(FollowerConfig{
		Addr:       p.ln.Addr().String(),
		ParamsHash: server.ParamsHash(testParams()),
		NextSeq:    func() uint64 { return 3 },
		Apply:      func(string, []byte, uint64) (int, error) { return 0, nil },
		Logf:       t.Logf,
	})
	defer f.Seal()
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("follower in the align gap did not stop (state %s)", f.State())
	}
	if f.State() != StateFailed {
		t.Fatalf("state %q, want failed", f.State())
	}
	err := f.Err()
	var se *trace.StreamError
	if !errors.As(err, &se) || se.Code != trace.ReplCodeCompacted {
		t.Fatalf("error %v is not the compacted terminal", err)
	}
	for _, want := range []string{"records [3, 8)", "full resync"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %v does not mention %q", err, want)
		}
	}
}

// TestFollowerResumesAcrossPrimaryRestart kills the primary's shipper
// mid-session, brings a new one up on the same log, and checks the follower
// reconnects and resumes exactly where it left off.
func TestFollowerResumesAcrossPrimaryRestart(t *testing.T) {
	p := startPrimary(t, 4)
	ctx := context.Background()
	if _, err := p.client.IngestKind(ctx, "gzip", trace.KindBranch, synthEvents(500, 1)); err != nil {
		t.Fatal(err)
	}

	// The follower dials through an indirection so the restarted shipper can
	// land on a fresh port.
	var addr atomic.Value
	addr.Store(p.ln.Addr().String())
	params := testParams()
	rl, err := wal.Open(wal.Options{
		Dir: t.TempDir(), ParamsHash: server.ParamsHash(params), Policy: wal.SyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	rs := server.New(server.Config{Params: params, Shards: 4, WAL: rl, Replica: true, Logf: t.Logf})
	f := StartFollower(FollowerConfig{
		ParamsHash: server.ParamsHash(params),
		NextSeq:    rl.NextSeq,
		Apply:      rs.ApplyReplicated,
		Logf:       t.Logf,
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr.Load().(string))
		},
	})
	defer f.Seal()
	waitApplied(t, f, p.log.NextSeq())

	// Crash the shipper (listener and sessions die; the WAL lives on, as it
	// would across a daemon restart) and keep ingesting into the primary.
	p.shipper.Close()
	p.ln.Close()
	if _, err := p.client.IngestKind(ctx, "gzip", trace.KindBranch, synthEvents(400, 2)); err != nil {
		t.Fatal(err)
	}

	sh2 := NewShipper(ShipperConfig{Log: p.log, Logf: t.Logf})
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sh2.Serve(ln2)
	defer func() { sh2.Close(); ln2.Close() }()
	addr.Store(ln2.Addr().String())

	waitApplied(t, f, p.log.NextSeq())
	if got, want := rs.Table().SnapshotEntries(), p.srv.Table().SnapshotEntries(); len(got) != len(want) {
		t.Fatalf("replica has %d entries, primary %d", len(got), len(want))
	}
	if f.Err() != nil {
		t.Fatalf("follower reported a permanent error across a transient restart: %v", f.Err())
	}
}

// TestShipperRejectsFutureFrom pins the divergence guard: a follower ahead
// of the primary's log end is rejected permanently (its records came from a
// history this primary never wrote).
func TestShipperRejectsFutureFrom(t *testing.T) {
	p := startPrimary(t, 2)
	f := StartFollower(FollowerConfig{
		Addr:       p.ln.Addr().String(),
		ParamsHash: server.ParamsHash(testParams()),
		NextSeq:    func() uint64 { return 999 },
		Apply:      func(string, []byte, uint64) (int, error) { return 0, nil },
		Logf:       t.Logf,
	})
	defer f.Seal()
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("future-from follower did not stop")
	}
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), "beyond the log end") {
		t.Fatalf("error %v does not name the divergence", err)
	}
}

// TestShipperRejectsOtherProtos pins that the primary speaks exactly one
// replication protocol: a hello at any other revision gets a proto_mismatch
// ack instead of a session.
func TestShipperRejectsOtherProtos(t *testing.T) {
	p := startPrimary(t, 2)
	for _, proto := range []uint32{0, 1, trace.ReplicationProtoVersion + 1} {
		conn, err := net.Dial("tcp", p.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		hello := trace.AppendReplHello(nil, trace.ReplHello{
			Proto: proto, ParamsHash: server.ParamsHash(testParams()),
		})
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		ack, err := trace.ReadReplAck(bufio.NewReader(conn))
		conn.Close()
		if err != nil {
			t.Fatalf("proto %d: ReadReplAck: %v", proto, err)
		}
		if ack.Err == nil || ack.Err.Code != trace.StreamCodeProtoMismatch {
			t.Fatalf("proto %d: ack = %+v, want a proto_mismatch reject", proto, ack)
		}
	}
}

// walRecord is one WAL record's identity: its sequence, table key and the
// frame bytes exactly as logged.
type walRecord struct {
	seq     uint64
	program string
	frame   string
}

// readLog returns every record of the WAL directory behind l.
func readLog(t *testing.T, l *wal.Log) []walRecord {
	t.Helper()
	r, err := wal.NewReader(wal.ReaderOptions{Dir: l.Dir(), ParamsHash: l.ParamsHash(), FrameOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []walRecord
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, walRecord{seq: rec.Seq, program: rec.Program, frame: string(rec.Frame)})
	}
}

// TestReplicaLogMatchesPrimary pins that the replica logs every shipped
// record byte for byte as the primary did: same sequence numbers, the same
// kind-encoded program keys, the same frame payloads — across kinds, POST
// batches of several frames, and stream frames.
func TestReplicaLogMatchesPrimary(t *testing.T) {
	p := startPrimary(t, 4)
	r := startReplica(t, 4, p.ln.Addr().String(), 8)
	ctx := context.Background()

	for i, kind := range []trace.Kind{trace.KindBranch, trace.KindValue, trace.KindMemdep, trace.KindTLSpec} {
		if _, err := p.client.IngestKind(ctx, "gzip", kind, synthEvents(300, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	frames := [][]trace.Event{synthEvents(100, 10), synthEvents(200, 11), synthEvents(50, 12)}
	if _, _, err := p.client.IngestFramesKindTimed(ctx, "vpr", trace.KindBranch, frames); err != nil {
		t.Fatal(err)
	}
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sln.Close()
	go p.srv.ServeStream(sln)
	st, err := server.DialStream(ctx, sln.Addr().String(), "mcf", server.ParamsHash(testParams()))
	if err != nil {
		t.Fatal(err)
	}
	for i, kind := range []trace.Kind{trace.KindBranch, trace.KindValue, trace.KindBranch} {
		if err := st.SendKind(ctx, kind, synthEvents(250, uint64(20+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, r.follower, p.log.NextSeq())

	primary, replica := readLog(t, p.log), readLog(t, r.log)
	if len(primary) != 10 {
		t.Fatalf("primary logged %d records, want 10", len(primary))
	}
	if len(replica) != len(primary) {
		t.Fatalf("replica logged %d records, primary %d", len(replica), len(primary))
	}
	for i := range primary {
		if replica[i] != primary[i] {
			t.Fatalf("record %d diverges: replica (seq %d, %q, %d frame bytes), primary (seq %d, %q, %d frame bytes)",
				i, replica[i].seq, replica[i].program, len(replica[i].frame),
				primary[i].seq, primary[i].program, len(primary[i].frame))
		}
	}
}

// TestFollowerStopsOnUndecodableRecord ships a WAL record whose CRC is valid
// but whose frame does not decode. The shipper forwards records without
// decoding them, so the replica's one decode is the guard: the follower
// must stop with a permanent error, and the replica's WAL and table must
// stay untouched.
func TestFollowerStopsOnUndecodableRecord(t *testing.T) {
	p := startPrimary(t, 2)
	if _, err := p.log.AppendPayload("gzip", []byte("not a trace frame")); err != nil {
		t.Fatal(err)
	}
	if err := p.log.Commit(); err != nil {
		t.Fatal(err)
	}
	r := startReplica(t, 2, p.ln.Addr().String(), 8)
	select {
	case <-r.follower.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("follower did not stop on an undecodable record")
	}
	if st := r.follower.State(); st != StateFailed {
		t.Fatalf("state %q, want failed", st)
	}
	if err := r.follower.Err(); !errors.Is(err, trace.ErrBadTrace) || !strings.Contains(err.Error(), "record 0") {
		t.Fatalf("error %v does not name record 0's decode failure", err)
	}
	if got := r.follower.LastApplied(); got != 0 {
		t.Fatalf("follower applied through seq %d, want 0", got)
	}
	if got := r.log.NextSeq(); got != 0 {
		t.Fatalf("replica WAL advanced to seq %d", got)
	}
	if recs := readLog(t, r.log); len(recs) != 0 {
		t.Fatalf("replica WAL holds %d records", len(recs))
	}
	if entries := r.srv.Table().SnapshotEntries(); len(entries) != 0 {
		t.Fatalf("replica table holds %d entries", len(entries))
	}
}
