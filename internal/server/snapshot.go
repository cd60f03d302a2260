package server

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"reactivespec/internal/core"
	"reactivespec/internal/wal"
)

// Snapshot layout: a single file, <dir>/current.snap, holding a gob-encoded
// snapshotFile. Writes go to <dir>/current.snap.tmp first and are renamed
// into place after a successful fsync, so a crash mid-write leaves the
// previous complete snapshot loadable — readers only ever see either the old
// file or the new one, never a torn mix. Stray .tmp files from a crashed
// writer are ignored (and overwritten by the next snapshot).

// snapshotName and snapshotTmpName are the on-disk file names.
const (
	snapshotName    = "current.snap"
	snapshotTmpName = "current.snap.tmp"
)

// snapshotVersion guards the gob payload layout.
const snapshotVersion = 1

// ErrSnapshotMismatch reports a snapshot whose controller parameters differ
// from the server's configuration; restoring it would change decisions
// mid-stream.
var ErrSnapshotMismatch = errors.New("server: snapshot parameters do not match configuration")

// Snapshot is the full serializable service state: controller parameters,
// per-program instruction cursors, and every touched table entry. Cursors
// and Entries are sorted so identical states serialize to identical bytes.
type Snapshot struct {
	Version int
	Params  core.Params
	// Policy is the registered policy name the entries were trained under.
	// Empty means the reactive default: gob zero-fills it when decoding
	// snapshots written before policies existed, and those were all
	// reactive, so the layout stays at snapshotVersion 1.
	Policy  string
	Cursors []CursorSnapshot
	Entries []EntrySnapshot
	// WALSeq anchors the snapshot in the write-ahead log: every WAL record
	// with a lower sequence number is fully reflected in Entries/Cursors,
	// none at or above it is. Zero for snapshots taken without a WAL (gob
	// also decodes pre-WAL snapshots to zero, so the layout stays at
	// snapshotVersion 1).
	WALSeq uint64
}

// CursorSnapshot is one program's ingest position. Events counts the events
// applied for the program (gob decodes pre-Events snapshots to zero, so the
// layout stays at snapshotVersion 1; a restored zero only costs failover
// clients a full re-verify, never a double apply).
type CursorSnapshot struct {
	Program string
	Instr   uint64
	Events  uint64
}

// snapshotPath returns the snapshot file path for dir.
func snapshotPath(dir string) string { return filepath.Join(dir, snapshotName) }

// WriteSnapshot atomically persists snap under dir, creating dir if needed.
func WriteSnapshot(dir string, snap *Snapshot) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: creating snapshot dir: %w", err)
	}
	tmp := filepath.Join(dir, snapshotTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("server: creating snapshot temp file: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = gob.NewEncoder(f).Encode(snap); err != nil {
		return fmt.Errorf("server: encoding snapshot: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("server: syncing snapshot: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("server: closing snapshot: %w", err)
	}
	if err = os.Rename(tmp, snapshotPath(dir)); err != nil {
		return fmt.Errorf("server: installing snapshot: %w", err)
	}
	// The rename is durable only once the directory is fsynced, and it must
	// be before SnapshotNow compacts the WAL below the new snapshot's
	// anchor: otherwise a crash could bring the old snapshot back with the
	// WAL tail it needs already gone, and recovery would refuse to start.
	if err := wal.SyncDir(dir); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// LoadSnapshot reads the current snapshot under dir. A missing snapshot (or
// missing dir) returns (nil, nil): a fresh start, not an error.
func LoadSnapshot(dir string) (*Snapshot, error) {
	f, err := os.Open(snapshotPath(dir))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("server: opening snapshot: %w", err)
	}
	defer f.Close()
	var snap Snapshot
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return nil, fmt.Errorf("server: decoding snapshot %s: %w", snapshotPath(dir), err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("server: snapshot version %d unsupported (want %d)",
			snap.Version, snapshotVersion)
	}
	return &snap, nil
}
