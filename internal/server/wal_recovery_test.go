package server

import (
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// walTestEnv is one crash-recovery scenario's fixture: a victim server with
// a WAL, the batches it ingested (per program, in order), and the shared
// directories a recovered server reopens.
type walTestEnv struct {
	walDir  string
	snapDir string
	shards  int
}

func newWALEnv(t *testing.T, shards int) *walTestEnv {
	t.Helper()
	return &walTestEnv{
		walDir:  t.TempDir(),
		snapDir: t.TempDir(),
		shards:  shards,
	}
}

// openLog opens the env's WAL with the params hash every test server uses.
func (env *walTestEnv) openLog(t *testing.T, policy wal.SyncPolicy) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{
		Dir:        env.walDir,
		ParamsHash: ParamsHash(testParams()),
		Policy:     policy,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l
}

// newServer builds a server over the env's directories and the given log.
func (env *walTestEnv) newServer(t *testing.T, l *wal.Log) (*Server, *Client) {
	t.Helper()
	return newTestServer(t, Config{Shards: env.shards, SnapshotDir: env.snapDir, WAL: l})
}

// walBatch is one ingested batch: which program, which synthEvents seed.
type walBatch struct {
	program string
	n       int
	seed    uint64
}

// controlState applies batches[:upto] to a fresh WAL-less server in ingest
// order and returns its entry snapshot — the ground truth a recovered server
// must reproduce byte-for-byte.
func controlState(t *testing.T, shards int, batches []walBatch, upto int) ([]EntrySnapshot, *Server) {
	t.Helper()
	s := New(Config{Params: testParams(), Shards: shards})
	var discard []byte
	for _, b := range batches[:upto] {
		cur := s.cursorFor(b.program)
		discard, cur.instr = s.table.ApplyBatchKind(b.program, trace.KindBranch, synthEvents(b.n, b.seed), cur.instr, discard[:0])
	}
	return s.table.SnapshotEntries(), s
}

// futureDecisions runs one more batch directly against a server's table and
// returns the decision bytes — recovered and control servers must agree on
// the future, not just the present.
func futureDecisions(t *testing.T, s *Server, b walBatch) []byte {
	t.Helper()
	cur := s.cursorFor(b.program)
	var out []byte
	out, cur.instr = s.table.ApplyBatchKind(b.program, trace.KindBranch, synthEvents(b.n, b.seed), cur.instr, nil)
	return out
}

// TestRecoverMatchesUncrashed pins the recovery determinism contract across
// seeds, shard counts and both transports: a server that crashes (WAL
// abandoned mid-life, no graceful shutdown path) and recovers via
// snapshot + WAL-tail replay reaches byte-identical controller state and
// produces byte-identical future decisions to a server that never crashed.
func TestRecoverMatchesUncrashed(t *testing.T) {
	for _, tc := range []struct {
		seed     uint64
		shards   int
		stream   bool
		snapshot bool // take a snapshot mid-stream so replay starts mid-WAL
	}{
		{seed: 1, shards: 1, stream: false, snapshot: true},
		{seed: 2, shards: 4, stream: false, snapshot: true},
		{seed: 3, shards: 4, stream: false, snapshot: false},
		{seed: 4, shards: 1, stream: true, snapshot: true},
		{seed: 5, shards: 4, stream: true, snapshot: false},
	} {
		name := fmt.Sprintf("seed=%d/shards=%d/stream=%v/snapshot=%v",
			tc.seed, tc.shards, tc.stream, tc.snapshot)
		t.Run(name, func(t *testing.T) {
			env := newWALEnv(t, tc.shards)
			batches := []walBatch{
				{program: "gzip", n: 4000, seed: tc.seed},
				{program: "vpr", n: 3000, seed: tc.seed + 10},
				{program: "gzip", n: 2000, seed: tc.seed + 20},
				{program: "mcf", n: 1000, seed: tc.seed + 30},
				{program: "vpr", n: 2500, seed: tc.seed + 40},
				{program: "gzip", n: 1500, seed: tc.seed + 50},
			}

			// Victim: ingest, optionally snapshot mid-way, ingest more,
			// then "crash" — the WAL is closed (SyncAlways makes every
			// acknowledged batch durable anyway) but the server never
			// drains or takes a shutdown snapshot.
			l := env.openLog(t, wal.SyncAlways)
			victim, vc := env.newServer(t, l)
			ingest := func(b walBatch) {
				events := synthEvents(b.n, b.seed)
				if tc.stream {
					st, err := openStream(t, victim, b.program)
					if err != nil {
						t.Fatalf("DialStream: %v", err)
					}
					if err := st.SendKind(context.Background(), trace.KindBranch, events); err != nil {
						t.Fatalf("Send: %v", err)
					}
					if _, err := st.Recv(context.Background()); err != nil {
						t.Fatalf("Recv: %v", err)
					}
					st.Close()
				} else if _, err := vc.IngestKind(context.Background(), b.program, trace.KindBranch, events); err != nil {
					t.Fatalf("Ingest: %v", err)
				}
			}
			for i, b := range batches {
				if tc.snapshot && i == len(batches)/2 {
					if _, err := victim.SnapshotNow(); err != nil {
						t.Fatalf("SnapshotNow: %v", err)
					}
				}
				ingest(b)
			}
			crashed := victim.table.SnapshotEntries()
			if err := l.Close(); err != nil {
				t.Fatalf("closing victim wal: %v", err)
			}

			// Recover into a fresh server over the same directories.
			l2 := env.openLog(t, wal.SyncAlways)
			recovered, _ := env.newServer(t, l2)
			res, err := recovered.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if tc.snapshot != res.SnapshotRestored {
				t.Fatalf("SnapshotRestored = %v, want %v", res.SnapshotRestored, tc.snapshot)
			}
			if res.ReplayedRecords == 0 {
				t.Fatalf("recovery replayed nothing")
			}
			if tc.snapshot && res.WALSeq == 0 {
				t.Fatalf("snapshot restored but replay anchored at 0")
			}

			// Byte-identical present: recovered state == crashed state ==
			// a control that never saw a WAL or a crash.
			got := recovered.table.SnapshotEntries()
			if !reflect.DeepEqual(got, crashed) {
				t.Fatalf("recovered entries differ from the crashed server's")
			}
			control, controlSrv := controlState(t, tc.shards, batches, len(batches))
			if !reflect.DeepEqual(got, control) {
				t.Fatalf("recovered entries differ from the uncrashed control")
			}

			// Byte-identical future: the next batch decides the same way.
			next := walBatch{program: "gzip", n: 2000, seed: tc.seed + 99}
			gotNext := futureDecisions(t, recovered, next)
			wantNext := futureDecisions(t, controlSrv, next)
			if !reflect.DeepEqual(gotNext, wantNext) {
				t.Fatalf("post-recovery decisions diverge from the uncrashed control")
			}
		})
	}
}

// TestRecoverTornFinalRecord pins SIGKILL-style torn-write recovery: the
// last WAL record is cut mid-payload, recovery truncates it at the last
// valid boundary, and the recovered state matches a control that never saw
// the torn batch.
func TestRecoverTornFinalRecord(t *testing.T) {
	env := newWALEnv(t, 4)
	batches := []walBatch{
		{program: "gzip", n: 3000, seed: 11},
		{program: "vpr", n: 2000, seed: 12},
		{program: "gzip", n: 1000, seed: 13},
	}
	l := env.openLog(t, wal.SyncAlways)
	_, vc := env.newServer(t, l)
	for _, b := range batches {
		if _, err := vc.IngestKind(context.Background(), b.program, trace.KindBranch, synthEvents(b.n, b.seed)); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("closing victim wal: %v", err)
	}

	// Tear the final record the way a mid-write power cut would.
	segs, err := os.ReadDir(env.walDir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("ReadDir: %v (%d entries)", err, len(segs))
	}
	path := env.walDir + "/" + segs[0].Name()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := os.Truncate(path, st.Size()-37); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	l2 := env.openLog(t, wal.SyncAlways)
	recovered, _ := env.newServer(t, l2)
	res, err := recovered.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if res.Truncation == nil {
		t.Fatalf("recovery reported no truncation")
	}
	if !strings.Contains(res.Truncation.String(), "byte offset") {
		t.Fatalf("truncation diagnostic carries no byte offset: %v", res.Truncation)
	}
	if res.ReplayedRecords != uint64(len(batches)-1) {
		t.Fatalf("replayed %d records, want %d (torn final record dropped)",
			res.ReplayedRecords, len(batches)-1)
	}

	control, _ := controlState(t, 4, batches, len(batches)-1)
	if got := recovered.table.SnapshotEntries(); !reflect.DeepEqual(got, control) {
		t.Fatalf("recovered entries differ from a control without the torn batch")
	}
}

// TestRecoverSurvivesCrashMidSnapshotWrite combines fsync=always with the
// snapshot crash-mid-write pattern: a garbage current.snap.tmp (a snapshot
// writer killed mid-write) must not disturb recovery — the previous durable
// snapshot plus the WAL tail still reproduce the full state.
func TestRecoverSurvivesCrashMidSnapshotWrite(t *testing.T) {
	env := newWALEnv(t, 2)
	batches := []walBatch{
		{program: "gzip", n: 3000, seed: 21},
		{program: "vpr", n: 2000, seed: 22},
		{program: "gzip", n: 1500, seed: 23},
	}
	l := env.openLog(t, wal.SyncAlways)
	victim, vc := env.newServer(t, l)
	for i, b := range batches {
		if i == 1 {
			if _, err := victim.SnapshotNow(); err != nil {
				t.Fatalf("SnapshotNow: %v", err)
			}
		}
		if _, err := vc.IngestKind(context.Background(), b.program, trace.KindBranch, synthEvents(b.n, b.seed)); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("closing victim wal: %v", err)
	}
	// A snapshot writer died mid-write, leaving a torn temp file behind.
	if err := os.WriteFile(env.snapDir+"/current.snap.tmp", []byte("partial garbage"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	l2 := env.openLog(t, wal.SyncAlways)
	recovered, _ := env.newServer(t, l2)
	res, err := recovered.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !res.SnapshotRestored {
		t.Fatalf("previous durable snapshot not restored")
	}
	control, _ := controlState(t, 2, batches, len(batches))
	if got := recovered.table.SnapshotEntries(); !reflect.DeepEqual(got, control) {
		t.Fatalf("recovered entries differ from the uncrashed control")
	}
}

// TestCompactionAfterSnapshot checks the snapshot→compaction hook: once a
// snapshot anchors past rotated segments, they are deleted, and recovery
// from the compacted log still reproduces the full state.
func TestCompactionAfterSnapshot(t *testing.T) {
	env := newWALEnv(t, 2)
	l, err := wal.Open(wal.Options{
		Dir:          env.walDir,
		ParamsHash:   ParamsHash(testParams()),
		Policy:       wal.SyncAlways,
		SegmentBytes: 4 << 10, // rotate aggressively
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	victim, vc := env.newServer(t, l)
	batches := []walBatch{
		{program: "gzip", n: 2000, seed: 31},
		{program: "vpr", n: 2000, seed: 32},
		{program: "gzip", n: 2000, seed: 33},
		{program: "mcf", n: 2000, seed: 34},
	}
	for _, b := range batches {
		if _, err := vc.IngestKind(context.Background(), b.program, trace.KindBranch, synthEvents(b.n, b.seed)); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	before := l.Stats().Segments
	if before < 2 {
		t.Fatalf("expected rotation before snapshot, got %d segments", before)
	}
	if _, err := victim.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	if after := l.Stats().Segments; after >= before {
		t.Fatalf("snapshot compacted nothing: %d -> %d segments", before, after)
	}
	if _, err := vc.IngestKind(context.Background(), "gzip", trace.KindBranch, synthEvents(500, 35)); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	crashed := victim.table.SnapshotEntries()
	if err := l.Close(); err != nil {
		t.Fatalf("closing victim wal: %v", err)
	}

	l2 := env.openLog(t, wal.SyncAlways)
	recovered, _ := env.newServer(t, l2)
	if _, err := recovered.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := recovered.table.SnapshotEntries(); !reflect.DeepEqual(got, crashed) {
		t.Fatalf("recovery from a compacted log diverged")
	}
}

// TestWALAppendErrorFailsIngest pins the log-before-apply contract's failure
// mode: when the WAL cannot append, POST ingest answers 500 without training
// the table, and a streaming session ends with a typed internal terminal.
func TestWALAppendErrorFailsIngest(t *testing.T) {
	env := newWALEnv(t, 2)
	l := env.openLog(t, wal.SyncAlways)
	s, c := env.newServer(t, l)
	// Kill the log under the server: every subsequent append fails.
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, err := c.IngestKind(context.Background(), "gzip", trace.KindBranch, synthEvents(100, 1))
	if err == nil || !strings.Contains(err.Error(), "wal append") {
		t.Fatalf("Ingest with a dead WAL: %v, want wal append error", err)
	}
	if entries := s.table.SnapshotEntries(); len(entries) != 0 {
		t.Fatalf("table trained %d entries despite WAL failure", len(entries))
	}

	st, err := openStream(t, s, "gzip")
	if err != nil {
		t.Fatalf("DialStream: %v", err)
	}
	defer st.Close()
	if err := st.SendKind(context.Background(), trace.KindBranch, synthEvents(100, 1)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := st.Recv(context.Background()); err == nil || err == io.EOF {
		t.Fatalf("Recv with a dead WAL: %v, want terminal internal error", err)
	}
	if entries := s.table.SnapshotEntries(); len(entries) != 0 {
		t.Fatalf("table trained %d entries despite WAL failure on the stream path", len(entries))
	}
}
