package main

import (
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"reactivespec/internal/server"
	"reactivespec/internal/trace"
)

// restartLaunches is the restart workload's count of timed launches: each
// replays the WAL, so fewer are needed for a steady median.
const restartLaunches = 3

// Post-fleet rate ceiling the expectations are sized for, in events per
// second over both connections (see hotMaxRatePerSession).
const fleetMaxRate = 3_000_000

// connClient returns a client that holds exactly one keep-alive connection
// to the daemon.
func connClient(base string) *server.Client {
	return server.Connect(base, server.WithHTTPClient(&http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}))
}

// fleetLoader replays one connection's schedule, one POST in flight.
type fleetLoader struct {
	f      *fleet
	c      int
	client *server.Client
	t      *tally

	log  *sampleLog // timed-phase samples, shared by the connections
	next int
}

// phase sends scheduled batches from the current position until stop()
// or the schedule's end, verifying each answer.
func (fd *fleetLoader) phase(ctx context.Context, stop func(item int) bool, timed bool) error {
	sched := fd.f.sched[fd.c]
	var got []byte
	for ; fd.next < len(sched) && !stop(fd.next); fd.next++ {
		it := sched[fd.next]
		s := fd.f.streams[it.stream]
		evs := s.batches[it.batch]
		t0 := time.Now()
		ds, err := fd.client.IngestKind(ctx, s.program, s.kind, evs)
		took := time.Since(t0)
		if err != nil {
			err = fmt.Errorf("%s/%s item %d: %w", s.program, s.kind, fd.next, err)
			fd.t.fail(err)
			return err
		}
		got = encodeDecisions(got[:0], ds)
		if len(ds) != len(evs) || digest(got) != it.expect {
			fd.t.fail(fmt.Errorf("%s/%s item %d: decisions differ from the in-process policy set", s.program, s.kind, fd.next))
		} else {
			fd.t.ok()
		}
		if timed {
			fd.log.add(t0.Add(took), took, int64(len(ds)))
		}
	}
	return nil
}

// bothConns runs fn for connections 0 and 1 concurrently.
func bothConns(fn func(c int) error) error {
	var errs [2]error
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// runPostFleet is the post-fleet workload: two keep-alive HTTP connections,
// one POST of 256 events in flight each, over 96 (program, kind) streams
// chosen with Zipf skew, into a daemon with a WAL at -wal-fsync interval.
func runPostFleet(ctx context.Context, o options, t *tally) (*measured, error) {
	timedItems := o.seconds * fleetMaxRate / fleetBatchEvents / 2
	f, err := buildFleet(o.seed, 1, timedItems, o.corrupt)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, "post-fleet")
	walDir := filepath.Join(dir, "wal")
	args := []string{"-wal-dir", walDir, "-wal-fsync", "interval"}
	d, setups, err := launchSetup(ctx, o, dir, false, args, setupLaunches, func() error {
		return os.RemoveAll(walDir)
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	log := &sampleLog{}
	loaders := [2]*fleetLoader{}
	for c := range loaders {
		loaders[c] = &fleetLoader{f: f, c: c, client: connClient(d.base), t: t, log: log}
	}
	// Warm-up: every stream's batches once, populating the table and the
	// first WAL segment.
	if err := bothConns(func(c int) error {
		return loaders[c].phase(ctx, func(i int) bool { return i >= f.warm[c] }, false)
	}); err != nil {
		return nil, err
	}

	phase, err := runTimed(d, o.seconds, log, func(stopped func() bool) error {
		return bothConns(func(c int) error {
			return loaders[c].phase(ctx, func(int) bool { return stopped() }, true)
		})
	})
	if err != nil {
		return nil, err
	}

	m := newMeasured()
	for c, fd := range loaders {
		if fd.next >= len(f.sched[c]) {
			m.notes = append(m.notes, fmt.Sprintf("connection %d used up its %d scheduled batches before the deadline", c, len(f.sched[c])))
		}
	}
	if err := putDaemonMetrics(m, eventOps, log, o.seconds, phase, setups); err != nil {
		return nil, err
	}
	return m, nil
}

// restartData builds the restart workload's data directory for a seed: a
// WAL'd daemon is driven through two warm-up passes of the fleet's streams
// with a snapshot cut between them, then killed, so that a restart loads the
// snapshot and replays the second pass from the WAL. It returns the fleet,
// whose mirrors hold the state the restarted daemon must answer with.
func restartData(ctx context.Context, o options, t *tally, dataDir string) (*fleet, error) {
	f, err := buildFleet(o.seed, 2, 0, false)
	if err != nil {
		return nil, err
	}
	buildDir := filepath.Join(o.work, "restart-build")
	os.RemoveAll(buildDir)
	os.RemoveAll(dataDir)
	args := []string{
		"-wal-dir", filepath.Join(dataDir, "wal"), "-wal-fsync", "interval=10ms",
		"-snapshot-dir", filepath.Join(dataDir, "snap"), "-snapshot-interval", "0",
	}
	d, _, err := startDaemon(ctx, o, buildDir, false, args)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	loaders := [2]*fleetLoader{}
	for c := range loaders {
		loaders[c] = &fleetLoader{f: f, c: c, client: connClient(d.base), t: t}
	}
	for pass := 1; pass <= 2; pass++ {
		if err := bothConns(func(c int) error {
			end := f.warm[c] * pass / 2
			return loaders[c].phase(ctx, func(i int) bool { return i >= end }, false)
		}); err != nil {
			return nil, err
		}
		if pass == 1 {
			if _, err := loaders[0].client.Snapshot(ctx); err != nil {
				return nil, fmt.Errorf("cutting the restart snapshot: %w", err)
			}
		}
	}
	// The interval flusher makes every acknowledged record durable within
	// 10ms; wait it out, then crash the daemon so no shutdown snapshot
	// absorbs the second pass.
	time.Sleep(200 * time.Millisecond)
	d.kill()
	return f, nil
}

// copyDir copies a directory tree of regular files.
func copyDir(dst, src string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// decideKey is one sampled decide query and its expected answer.
type decideKey struct {
	stream int
	id     trace.BranchID
	want   server.Decision
}

// sampleDecideKeys draws n (stream, unit) keys with the seed; most are units
// the streams touched, some are not (their answer is the Monitor default).
func sampleDecideKeys(seed uint64, f *fleet, n int, corrupt bool) []decideKey {
	r := rng{s: mix(seed, 31)}
	keys := make([]decideKey, n)
	for i := range keys {
		s := int(r.next() % uint64(len(f.streams)))
		id := trace.BranchID(r.next() % uint64(len(f.streams[s].spec.Branches)+8))
		keys[i] = decideKey{stream: s, id: id, want: f.mirrors[s].answer(id)}
	}
	if corrupt {
		keys[0].want.Live = !keys[0].want.Live
	}
	return keys
}

// runRestart is the restart workload: the daemon restarts on a copy of a
// seeded data directory (snapshot load + WAL replay, the set-up time), then
// two closed-loop connections send kind-aware decide queries over a seeded
// sample of units, each answer checked against the policy-set mirror.
func runRestart(ctx context.Context, o options, t *tally) (*measured, error) {
	dataDir := filepath.Join(o.work, "restart-data")
	f, err := restartData(ctx, o, t, dataDir)
	if err != nil {
		return nil, err
	}
	keys := sampleDecideKeys(o.seed, f, 8192, o.corrupt)
	// Only the streams' names are needed from here on; release the events
	// and policy sets so the load generator's collector has little to scan.
	for _, s := range f.streams {
		s.batches, s.spec = nil, nil
	}
	f.sched, f.mirrors = [2][]fleetItem{}, nil

	dir := filepath.Join(o.work, "restart")
	runDir := filepath.Join(dir, "data")
	args := []string{
		"-wal-dir", filepath.Join(runDir, "wal"), "-wal-fsync", "interval",
		"-snapshot-dir", filepath.Join(runDir, "snap"), "-snapshot-interval", "0",
	}
	d, setups, err := launchSetup(ctx, o, dir, false, args, restartLaunches, func() error {
		if err := os.RemoveAll(runDir); err != nil {
			return err
		}
		return copyDir(runDir, dataDir)
	})
	if err != nil {
		return nil, err
	}
	// The restarted daemon's state is disposable: kill rather than drain, so
	// no shutdown snapshot is written.
	defer d.kill()

	conns := [2]*server.Client{connClient(d.base), connClient(d.base)}
	// query sends one decide, checks the answer and returns when it came.
	query := func(client *server.Client, k decideKey) (done time.Time, took time.Duration) {
		s := f.streams[k.stream]
		t0 := time.Now()
		resp, err := client.DecideKind(ctx, s.program, s.kind, k.id)
		done = time.Now()
		took = done.Sub(t0)
		if err != nil {
			t.fail(fmt.Errorf("decide %s/%s/%d: %w", s.program, s.kind, k.id, err))
			return done, took
		}
		if resp.State != k.want.State.String() || resp.Dir != k.want.Dir || resp.Live != k.want.Live {
			t.fail(fmt.Errorf("decide %s/%s/%d: daemon %s/%v/%v, policy set %s/%v/%v", s.program, s.kind, k.id,
				resp.State, resp.Dir, resp.Live, k.want.State, k.want.Dir, k.want.Live))
			return done, took
		}
		t.ok()
		return done, took
	}
	// Warm-up: each connection's first 256 keys.
	if err := bothConns(func(c int) error {
		for i := c; i < 512; i += 2 {
			query(conns[c], keys[i])
		}
		return nil
	}); err != nil {
		return nil, err
	}

	log := &sampleLog{}
	phase, err := runTimed(d, o.seconds, log, func(stopped func() bool) error {
		return bothConns(func(c int) error {
			for i := c; !stopped(); i += 2 {
				done, took := query(conns[c], keys[i%len(keys)])
				log.add(done, took, 1)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	m := newMeasured()
	if err := putDaemonMetrics(m, decideOps, log, o.seconds, phase, setups); err != nil {
		return nil, err
	}
	return m, nil
}
