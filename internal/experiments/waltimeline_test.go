package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// walTimelineParams are scaled far down so a few hundred events drive
// controllers through real classification transitions.
func walTimelineParams() core.Params { return core.DefaultParams().Scaled(200) }

// synthWALEvents builds a deterministic batch over a handful of branches:
// branch 1 is strongly taken-biased, branch 2 oscillates, branch 3 is
// strongly not-taken-biased.
func synthWALEvents(round, n int) []trace.Event {
	events := make([]trace.Event, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			events = append(events, trace.Event{Branch: 1, Taken: true, Gap: 7})
		case 1:
			events = append(events, trace.Event{Branch: 2, Taken: (round+i)%2 == 0, Gap: 11})
		default:
			events = append(events, trace.Event{Branch: 3, Taken: false, Gap: 5})
		}
	}
	return events
}

// writeTimelineWAL writes rounds batches for each named program into a fresh
// WAL under dir and returns the per-program batches in append order.
func writeTimelineWAL(t *testing.T, dir string, hash uint64, programs []string, rounds, perBatch int) map[string][][]trace.Event {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, ParamsHash: hash, Policy: wal.SyncNever})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	batches := make(map[string][][]trace.Event)
	for round := 0; round < rounds; round++ {
		for _, prog := range programs {
			events := synthWALEvents(round, perBatch)
			if _, err := l.AppendPayload(prog, trace.EncodeFrameAppend(nil, events)); err != nil {
				t.Fatalf("Append: %v", err)
			}
			batches[prog] = append(batches[prog], events)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return batches
}

// TestTimelineFromWALMatchesTable pins the replay semantics to the serving
// table's: after replaying a program's full log, every branch's final
// timeline state equals the state a live table reaches applying the same
// batches.
func TestTimelineFromWALMatchesTable(t *testing.T) {
	params := walTimelineParams()
	hash := server.ParamsHash(params)
	dir := t.TempDir()
	batches := writeTimelineWAL(t, dir, hash, []string{"gzip", "mcf"}, 6, 60)

	res, trunc, err := TimelineFromWAL(WALWindow{
		Dir: dir, Program: "gzip", Params: params, ParamsHash: hash,
	})
	if err != nil {
		t.Fatalf("TimelineFromWAL: %v", err)
	}
	if trunc != nil {
		t.Fatalf("unexpected truncation: %v", trunc)
	}
	if res.Bench != "wal:gzip" {
		t.Fatalf("Bench = %q, want wal:gzip", res.Bench)
	}

	var wantEvents, wantInstrs uint64
	tbl := server.NewTable(params, 4)
	var instr uint64
	for _, events := range batches["gzip"] {
		_, instr = tbl.ApplyBatchKind("gzip", trace.KindBranch, events, instr, nil)
		wantEvents += uint64(len(events))
		for _, ev := range events {
			wantInstrs += uint64(ev.Gap)
		}
	}
	if res.Stats.Events != wantEvents || res.Stats.Instrs != wantInstrs {
		t.Fatalf("Stats = %d events / %d instrs, want %d / %d",
			res.Stats.Events, res.Stats.Instrs, wantEvents, wantInstrs)
	}
	if res.Transitions == 0 {
		t.Fatal("no transitions recorded; scaled params should classify these branches")
	}
	if len(res.Branches) == 0 {
		t.Fatal("no branch timelines")
	}
	for _, tl := range res.Branches {
		want := tbl.Decide("gzip", tl.Branch).State
		if tl.Final != want {
			t.Errorf("branch %d: final state %v, want table state %v", tl.Branch, tl.Final, want)
		}
		if tl.Segments[0].State != core.Monitor {
			t.Errorf("branch %d: window opens in %v, want monitor (cold start)", tl.Branch, tl.Segments[0].State)
		}
	}
}

// TestTimelineFromWALDeterministic pins that two replays of the same window
// produce identical results.
func TestTimelineFromWALDeterministic(t *testing.T) {
	params := walTimelineParams()
	hash := server.ParamsHash(params)
	dir := t.TempDir()
	writeTimelineWAL(t, dir, hash, []string{"gcc"}, 4, 48)

	w := WALWindow{Dir: dir, Params: params, ParamsHash: hash}
	a, _, err := TimelineFromWAL(w)
	if err != nil {
		t.Fatalf("first replay: %v", err)
	}
	b, _, err := TimelineFromWAL(w)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two replays of the same window differ")
	}
}

// TestTimelineFromWALWindow pins the [From, To) selection: a bounded window
// replays exactly the records inside it, cold-started.
func TestTimelineFromWALWindow(t *testing.T) {
	params := walTimelineParams()
	hash := server.ParamsHash(params)
	dir := t.TempDir()
	batches := writeTimelineWAL(t, dir, hash, []string{"gcc"}, 5, 30)

	perBatch := uint64(len(batches["gcc"][0]))
	res, _, err := TimelineFromWAL(WALWindow{
		Dir: dir, From: 1, To: 4, Params: params, ParamsHash: hash,
	})
	if err != nil {
		t.Fatalf("TimelineFromWAL: %v", err)
	}
	if want := 3 * perBatch; res.Stats.Events != want {
		t.Fatalf("window [1,4) replayed %d events, want %d", res.Stats.Events, want)
	}
}

// TestTimelineFromWALTornTail pins that a torn final record truncates the
// replay to the valid prefix and reports the truncation.
func TestTimelineFromWALTornTail(t *testing.T) {
	params := walTimelineParams()
	hash := server.ParamsHash(params)
	dir := t.TempDir()
	batches := writeTimelineWAL(t, dir, hash, []string{"gcc"}, 3, 30)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("globbing segments: %v (%d found)", err, len(segs))
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := os.Truncate(last, fi.Size()-17); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	res, trunc, err := TimelineFromWAL(WALWindow{Dir: dir, Params: params, ParamsHash: hash})
	if err != nil {
		t.Fatalf("TimelineFromWAL: %v", err)
	}
	if trunc == nil {
		t.Fatal("torn tail not reported")
	}
	if want := 2 * uint64(len(batches["gcc"][0])); res.Stats.Events != want {
		t.Fatalf("replayed %d events past a torn record, want %d", res.Stats.Events, want)
	}
}

// TestTimelineFromWALLiveDir pins the point-in-time contract: the replay
// runs against a directory whose Log is still open and appending, sees
// exactly the records flushed before the pass, and a later pass over the
// same (still-live) directory sees the records appended in between.
func TestTimelineFromWALLiveDir(t *testing.T) {
	params := walTimelineParams()
	hash := server.ParamsHash(params)
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, ParamsHash: hash, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer l.Close()

	perBatch := 30
	for round := 0; round < 3; round++ {
		if _, err := l.AppendPayload("gcc", trace.EncodeFrameAppend(nil, synthWALEvents(round, perBatch))); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}

	w := WALWindow{Dir: dir, Params: params, ParamsHash: hash}
	res, trunc, err := TimelineFromWAL(w)
	if err != nil {
		t.Fatalf("replay against a live dir: %v", err)
	}
	if trunc != nil {
		t.Fatalf("unexpected truncation on fsynced records: %v", trunc)
	}
	if want := uint64(3 * perBatch); res.Stats.Events != want {
		t.Fatalf("live replay saw %d events, want %d", res.Stats.Events, want)
	}

	// The log keeps growing; a fresh pass sees the new records, while the
	// completed pass was unaffected by them.
	for round := 3; round < 5; round++ {
		if _, err := l.AppendPayload("gcc", trace.EncodeFrameAppend(nil, synthWALEvents(round, perBatch))); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	res2, _, err := TimelineFromWAL(w)
	if err != nil {
		t.Fatalf("second live replay: %v", err)
	}
	if want := uint64(5 * perBatch); res2.Stats.Events != want {
		t.Fatalf("second live replay saw %d events, want %d", res2.Stats.Events, want)
	}
}

// TestTimelineFromWALErrors covers the refusal cases: inverted windows,
// parameter mismatches, ambiguous multi-program windows, and empty
// selections.
func TestTimelineFromWALErrors(t *testing.T) {
	params := walTimelineParams()
	hash := server.ParamsHash(params)
	dir := t.TempDir()
	writeTimelineWAL(t, dir, hash, []string{"gzip", "mcf"}, 2, 12)

	if _, _, err := TimelineFromWAL(WALWindow{Dir: dir, From: 3, To: 3, Params: params, ParamsHash: hash}); err == nil {
		t.Error("empty window accepted")
	}
	if _, _, err := TimelineFromWAL(WALWindow{Dir: dir, Params: params, ParamsHash: hash + 1}); !errors.Is(err, wal.ErrParamsMismatch) {
		t.Errorf("wrong params hash: got %v, want ErrParamsMismatch", err)
	}
	if _, _, err := TimelineFromWAL(WALWindow{Dir: dir, Params: params, ParamsHash: hash}); err == nil ||
		!strings.Contains(err.Error(), "select one") {
		t.Errorf("ambiguous multi-program window: got %v", err)
	}
	if _, _, err := TimelineFromWAL(WALWindow{Dir: dir, Program: "nonesuch", Params: params, ParamsHash: hash}); err == nil ||
		!strings.Contains(err.Error(), "no records for program") {
		t.Errorf("unknown program: got %v", err)
	}
}
