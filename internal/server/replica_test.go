package server

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// newReplicaServer builds a read-only replica over its own WAL directory.
func newReplicaServer(t *testing.T, shards int) (*Server, *Client) {
	t.Helper()
	env := newWALEnv(t, shards)
	l := env.openLog(t, wal.SyncAlways)
	t.Cleanup(func() { l.Close() })
	return newTestServer(t, Config{Shards: shards, SnapshotDir: env.snapDir, WAL: l, Replica: true})
}

// TestReplicaRejectsWrites pins the read-only contract on every write
// transport: POST ingest and stream handshakes answer with the read_only
// code, reads keep working, and the mode is visible in /v1/info and
// /metrics.
func TestReplicaRejectsWrites(t *testing.T) {
	s, c := newReplicaServer(t, 4)

	if _, err := c.IngestKind(context.Background(), "gzip", trace.KindBranch, synthEvents(10, 1)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ingest on a replica: %v, want ErrReadOnly", err)
	}
	var apiErr *APIError
	if _, err := c.IngestKind(context.Background(), "gzip", trace.KindBranch, synthEvents(10, 1)); !errors.As(err, &apiErr) ||
		apiErr.Status != 403 || apiErr.Code != CodeReadOnly {
		t.Fatalf("ingest envelope: %v", err)
	}
	if _, err := openStream(t, s, "gzip"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("stream handshake on a replica: %v, want ErrReadOnly", err)
	}

	// Reads still serve.
	if _, err := c.DecideKind(context.Background(), "gzip", trace.KindBranch, 0); err != nil {
		t.Fatalf("decide on a replica: %v", err)
	}
	info, err := c.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != "replica" {
		t.Fatalf("info mode %q, want replica", info.Mode)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "reactived_replica 1") {
		t.Fatal("metrics missing reactived_replica 1")
	}
	if s.Mode() != "replica" || !s.ReadOnly() {
		t.Fatalf("Mode=%q ReadOnly=%v", s.Mode(), s.ReadOnly())
	}
}

// TestApplyReplicatedThenPromote replays batches through ApplyReplicated,
// promotes, and pins the state, cursor accounting, and decision stream
// against a plain primary that ingested the same events.
func TestApplyReplicatedThenPromote(t *testing.T) {
	batches := []walBatch{
		{"gzip", 400, 1}, {"vpr", 300, 2}, {"gzip", 500, 3}, {"mcf", 200, 4},
	}
	control, _ := controlState(t, 4, "", batches, len(batches))

	s, c := newReplicaServer(t, 4)
	var total uint64
	for _, b := range batches {
		if _, err := s.ApplyReplicated(b.program, trace.EncodeFrameAppend(nil, synthEvents(b.n, b.seed)), 0); err != nil {
			t.Fatalf("ApplyReplicated: %v", err)
		}
		total += uint64(b.n)
	}

	// The cursor endpoint reports the replicated position per program.
	cr, err := c.Cursor(context.Background(), "gzip", trace.KindBranch)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Events != 900 {
		t.Fatalf("gzip cursor events %d, want 900", cr.Events)
	}
	if cr, err = c.Cursor(context.Background(), "never-seen", trace.KindBranch); err != nil || cr.Events != 0 || cr.Instr != 0 {
		t.Fatalf("unknown-program cursor = %+v, %v", cr, err)
	}

	res, err := c.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if res.Mode != "primary" {
		t.Fatalf("promote result %+v", res)
	}
	if s.ReadOnly() || s.Mode() != "primary" {
		t.Fatal("promotion did not flip the server writable")
	}

	// The promoted state is byte-identical to a primary that ingested the
	// same batches.
	if got := s.table.SnapshotEntries(); !reflect.DeepEqual(got, control) {
		t.Fatal("promoted replica state diverges from the control primary")
	}

	// Writes now land; replication applies no longer do.
	if _, err := c.IngestKind(context.Background(), "gzip", trace.KindBranch, synthEvents(50, 9)); err != nil {
		t.Fatalf("ingest after promote: %v", err)
	}
	if _, err := s.ApplyReplicated("gzip", trace.EncodeFrameAppend(nil, synthEvents(5, 1)), 0); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("ApplyReplicated after promote: %v, want ErrNotReplica", err)
	}

	// Double promote is a typed conflict.
	if _, err := c.Promote(context.Background()); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("second promote: %v, want ErrNotReplica", err)
	}
	var apiErr *APIError
	if _, err := c.Promote(context.Background()); !errors.As(err, &apiErr) || apiErr.Status != 409 || apiErr.Code != CodeNotReplica {
		t.Fatalf("second promote envelope: %v", err)
	}
}

// TestPromoteRunsSealFunc pins the ordering contract: the seal hook runs
// while the server is still read-only, and its sequence lands in the result.
func TestPromoteRunsSealFunc(t *testing.T) {
	s, _ := newReplicaServer(t, 2)
	sealed := false
	s.SetSealFunc(func() (uint64, error) {
		if !s.ReadOnly() {
			t.Error("seal ran after the server went writable")
		}
		sealed = true
		return 42, nil
	})
	res, err := s.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if !sealed || res.LastAppliedSeq != 42 {
		t.Fatalf("sealed=%v result=%+v", sealed, res)
	}
}

// TestPromoteOnPrimary pins that a daemon that never was a replica rejects
// promotion.
func TestPromoteOnPrimary(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 2})
	if _, err := s.Promote(); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("Promote on a primary: %v, want ErrNotReplica", err)
	}
}

// TestReplicaCursorSurvivesSnapshotRestore pins the Events field through the
// snapshot/restore cycle: a recovered daemon reports the same cursor the
// crashed one acknowledged.
func TestReplicaCursorSurvivesSnapshotRestore(t *testing.T) {
	env := newWALEnv(t, 4)
	l := env.openLog(t, wal.SyncAlways)
	s, c := env.newServer(t, l)
	if _, err := c.IngestKind(context.Background(), "gzip", trace.KindBranch, synthEvents(123, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := env.openLog(t, wal.SyncAlways)
	defer l2.Close()
	s2, c2 := env.newServer(t, l2)
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	cr, err := c2.Cursor(context.Background(), "gzip", trace.KindBranch)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Events != 123 {
		t.Fatalf("restored cursor events %d, want 123", cr.Events)
	}
}
