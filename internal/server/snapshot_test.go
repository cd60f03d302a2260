package server

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// TestSnapshotRestoreResumesIdenticalDecisions is the snapshot/restore
// acceptance test: a table snapshotted mid-trace and restored into a fresh
// server resumes with a bitwise-identical decision sequence on the
// remainder of the trace.
func TestSnapshotRestoreResumesIdenticalDecisions(t *testing.T) {
	dir := t.TempDir()
	params := testParams()
	evs := synthEvents(50_000, 21)
	half := len(evs) / 2

	orig, origClient := newTestServer(t, Config{Params: params, Shards: 8, SnapshotDir: dir})
	firstDs, err := origClient.IngestKind(context.Background(), "gzip", trace.KindBranch, evs[:half])
	if err != nil {
		t.Fatal(err)
	}
	if len(firstDs) != half {
		t.Fatalf("%d decisions for %d events", len(firstDs), half)
	}
	if _, err := origClient.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}

	restored, restoredClient := newTestServer(t, Config{Params: params, Shards: 3, SnapshotDir: dir})
	ok, err := restored.RestoreFromDisk()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no snapshot restored")
	}

	wantDs, err := origClient.IngestKind(context.Background(), "gzip", trace.KindBranch, evs[half:])
	if err != nil {
		t.Fatal(err)
	}
	gotDs, err := restoredClient.IngestKind(context.Background(), "gzip", trace.KindBranch, evs[half:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantDs {
		if gotDs[i] != wantDs[i] {
			t.Fatalf("event %d after restore: %v, want %v", i, gotDs[i], wantDs[i])
		}
	}

	// The resident state must agree too (snapshot entries are a full
	// export, not just enough for the next event).
	a := orig.Table().SnapshotEntries()
	b := restored.Table().SnapshotEntries()
	if len(a) != len(b) {
		t.Fatalf("%d entries vs %d after replay", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSnapshotCrashMidWriteKeepsPrevious simulates a crash mid-snapshot: a
// partial temp file must not shadow or corrupt the last complete snapshot.
func TestSnapshotCrashMidWriteKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	snap := &Snapshot{
		Version: snapshotVersion,
		Params:  testParams(),
		Cursors: []CursorSnapshot{{Program: "p", Instr: 12345}},
		Entries: []EntrySnapshot{{Program: "p", Branch: 7, State: core.BranchState{State: core.Biased, Execs: 9}}},
	}
	if err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}

	// Crash mid-write: a half-written temp file is left behind.
	if err := os.WriteFile(filepath.Join(dir, snapshotTmpName), []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatalf("previous snapshot unloadable after crash-mid-write: %v", err)
	}
	if got == nil {
		t.Fatal("previous snapshot vanished")
	}
	if len(got.Cursors) != 1 || got.Cursors[0] != snap.Cursors[0] ||
		len(got.Entries) != 1 || got.Entries[0] != snap.Entries[0] {
		t.Fatalf("loaded %+v, want %+v", got, snap)
	}

	// The next successful snapshot replaces both cleanly.
	snap2 := &Snapshot{Version: snapshotVersion, Params: snap.Params,
		Cursors: []CursorSnapshot{{Program: "p", Instr: 99}}, Entries: snap.Entries}
	if err := WriteSnapshot(dir, snap2); err != nil {
		t.Fatal(err)
	}
	got, err = LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cursors[0].Instr != 99 {
		t.Fatalf("cursor %d, want 99", got.Cursors[0].Instr)
	}
}

// TestLoadSnapshotMissingAndCorrupt covers the fresh-start and damaged-file
// paths.
func TestLoadSnapshotMissingAndCorrupt(t *testing.T) {
	snap, err := LoadSnapshot(filepath.Join(t.TempDir(), "nonexistent"))
	if err != nil || snap != nil {
		t.Fatalf("missing dir: (%v, %v), want (nil, nil)", snap, err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(snapshotPath(dir), []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(dir); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
}

// TestRestoreRejectsParamMismatch: restoring under different controller
// parameters must fail loudly, not silently change decisions.
func TestRestoreRejectsParamMismatch(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, Config{Params: testParams(), SnapshotDir: dir})
	if _, err := c.IngestKind(context.Background(), "p", trace.KindBranch, synthEvents(1000, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	other := New(Config{Params: core.DefaultParams(), SnapshotDir: dir})
	if _, err := other.RestoreFromDisk(); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
}

// TestSnapshotEndpointAndDeterminism: the HTTP snapshot trigger works, and
// snapshotting twice with no intervening ingest produces identical bytes
// (entries are sorted, the layout is deterministic).
func TestSnapshotEndpointAndDeterminism(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, Config{SnapshotDir: dir, Shards: 8})
	if _, err := c.IngestKind(context.Background(), "a", trace.KindBranch, synthEvents(5000, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestKind(context.Background(), "b", trace.KindBranch, synthEvents(5000, 6)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries == 0 || res.Programs != 2 {
		t.Fatalf("snapshot result %+v", res)
	}
	first, err := os.ReadFile(res.Path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(res.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("idle snapshots differ byte-for-byte")
	}
}

// TestSnapshotWithoutDirFails: triggering a snapshot on a server with no
// snapshot directory must error rather than write somewhere surprising.
func TestSnapshotWithoutDirFails(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if _, err := s.SnapshotNow(); err == nil {
		t.Fatal("snapshot without a directory succeeded")
	}
}
