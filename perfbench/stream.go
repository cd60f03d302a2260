package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"reactivespec/internal/server"
	"reactivespec/internal/trace"
)

// Stream-hot rate ceiling the expectations are sized for, in events per
// second per session. A run that outpaces it stops sending when the
// precomputed expectations run out and reports the rate over the shorter
// window (the report notes it).
const hotMaxRatePerSession = 6_000_000

// setupLaunches is how many times each run launches the daemon to take the
// median set-up time.
const setupLaunches = 7

// hotLoader drives one stream-hot session: a sender pipelining pre-encoded
// frames up to the window, a receiver verifying each frame's decisions.
type hotLoader struct {
	s  *hotSession
	st *server.Stream
	t  *tally

	log       *sampleLog    // timed-phase samples, shared by the sessions
	next      int           // next frame index to send
	sendWait  time.Duration // time the sender waited for window credit
	recvTime  time.Duration // time the receiver spent in Recv
	exhausted bool
}

// phase sends frames until stop() says so (checked before each send) or the
// expectations run out, waits for every decision, and verifies them. With
// timed, latencies and counts are recorded.
func (h *hotLoader) phase(ctx context.Context, stop func(frame int) bool, timed bool) error {
	type inflight struct {
		frame  int
		sentAt time.Time
	}
	credit := make(chan struct{}, streamWindow)
	for i := 0; i < streamWindow; i++ {
		credit <- struct{}{}
	}
	pending := make(chan inflight, streamWindow)
	sendErr := make(chan error, 1)
	go func() {
		defer close(pending)
		for {
			if stop(h.next) {
				sendErr <- nil
				return
			}
			if h.next >= len(h.s.expect) {
				h.exhausted = true
				sendErr <- nil
				return
			}
			w0 := time.Now()
			<-credit
			t0 := time.Now()
			if timed {
				h.sendWait += t0.Sub(w0)
			}
			f := h.next % streamCycleFrames
			if err := h.st.SendEncodedKind(ctx, trace.KindBranch, h.s.frames[f], streamFrameEvents); err != nil {
				sendErr <- err
				return
			}
			pending <- inflight{frame: h.next, sentAt: t0}
			h.next++
		}
	}()
	var got []byte
	var recvErr error
	for inf := range pending {
		r0 := time.Now()
		ds, err := h.st.Recv(ctx)
		done := time.Now()
		if err != nil {
			recvErr = fmt.Errorf("%s frame %d: receiving decisions: %w", h.s.program, inf.frame, err)
			h.t.fail(recvErr)
			break
		}
		got = encodeDecisions(got[:0], ds)
		if len(ds) != streamFrameEvents || digest(got) != h.s.expect[inf.frame] {
			h.t.fail(fmt.Errorf("%s frame %d: decisions differ from the in-process policy set", h.s.program, inf.frame))
		} else {
			h.t.ok()
		}
		if timed {
			h.recvTime += done.Sub(r0)
			h.log.add(done, done.Sub(inf.sentAt), int64(len(ds)))
		}
		credit <- struct{}{}
	}
	if recvErr != nil {
		// Unblock the sender: Close discards undelivered frames and fails a
		// Send waiting on the session's own credit.
		go func() {
			for range pending {
			}
		}()
		h.st.Close()
		<-sendErr
		return recvErr
	}
	if err := <-sendErr; err != nil {
		h.t.fail(err)
		return err
	}
	return nil
}

// runStreamHot is the stream-hot workload: two raw-TCP stream sessions
// (gzip, gcc; kind=branch; reactive; no WAL) pipelining pre-encoded
// 1024-event frames at window 16.
func runStreamHot(ctx context.Context, o options, t *tally) (*measured, error) {
	maxFrames := streamCycleFrames + o.seconds*hotMaxRatePerSession/streamFrameEvents
	sessions, err := buildStreamHot(o.seed, maxFrames, o.corrupt)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, "stream-hot")
	d, setups, err := launchSetup(ctx, o, dir, true, nil, setupLaunches, nil)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	hash := server.ParamsPolicyHash(daemonParams, daemonPolicy)
	log := &sampleLog{}
	loaders := make([]*hotLoader, len(sessions))
	for i, s := range sessions {
		st, err := server.DialStream(ctx, d.streamAddr, s.program, hash, server.WithStreamWindow(streamWindow))
		if err != nil {
			return nil, err
		}
		if st.Window() != streamWindow {
			st.Close()
			return nil, fmt.Errorf("daemon granted window %d, want %d", st.Window(), streamWindow)
		}
		loaders[i] = &hotLoader{s: s, st: st, t: t, log: log}
	}
	all := func(fn func(h *hotLoader) error) error {
		errs := make([]error, len(loaders))
		var wg sync.WaitGroup
		for i, h := range loaders {
			wg.Add(1)
			go func(i int, h *hotLoader) {
				defer wg.Done()
				errs[i] = fn(h)
			}(i, h)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Warm-up: one pass over every distinct frame populates the table.
	if err := all(func(h *hotLoader) error {
		return h.phase(ctx, func(f int) bool { return f >= streamCycleFrames }, false)
	}); err != nil {
		return nil, err
	}

	phase, err := runTimed(d, o.seconds, log, func(stopped func() bool) error {
		return all(func(h *hotLoader) error {
			return h.phase(ctx, func(int) bool { return stopped() }, true)
		})
	})
	if err != nil {
		return nil, err
	}
	for _, h := range loaders {
		if err := h.st.Close(); err != nil {
			t.fail(fmt.Errorf("%s: closing session: %w", h.s.program, err))
		}
	}

	m := newMeasured()
	var sendWait, recvTime time.Duration
	for _, h := range loaders {
		sendWait += h.sendWait
		recvTime += h.recvTime
		if h.exhausted {
			m.notes = append(m.notes, fmt.Sprintf("%s used up its %d precomputed frames before the deadline", h.s.program, len(h.s.expect)))
		}
	}
	if err := putDaemonMetrics(m, eventOps, log, o.seconds, phase, setups); err != nil {
		return nil, err
	}
	m.note("client.send_wait_frac", sendWait.Seconds()/(phase.elapsed.Seconds()*float64(len(loaders))), "ratio", 0)
	var events int64
	for _, smp := range log.samples {
		events += smp.n
	}
	m.note("client.recv_ns_per_event", float64(recvTime)/float64(events), "ns", 0)
	return m, nil
}

// opNames are the report-line names of a daemon workload's metrics.
type opNames struct {
	rate, rateUnit, lat, cpu string
}

var (
	eventOps  = opNames{rate: "events_per_s", rateUnit: "events/s", lat: "batch", cpu: "cpu_ns_per_event"}
	decideOps = opNames{rate: "decide_per_s", rateUnit: "queries/s", lat: "decide", cpu: "cpu_ns_per_query"}
)

// timedPhase is what the benchmark measured of the daemon over a timed
// phase.
type timedPhase struct {
	elapsed time.Duration
	cpu     *cpuSampler   // daemon CPU and host steal at each window boundary
	cpuEnd  time.Duration // daemon CPU once the last operation completed
	rss     int64         // daemon peak RSS, bytes
}

// runTimed runs drive as the timed phase: the clock starts now, the daemon's
// CPU is sampled at every window boundary, and stopped() turns true after
// seconds; drive must then stop sending and return once its last operation
// has completed.
func runTimed(d *daemon, seconds int, log *sampleLog, drive func(stopped func() bool) error) (timedPhase, error) {
	var stop atomic.Bool
	var p timedPhase
	log.start = time.Now()
	p.cpu = startCPUSampler(d, seconds)
	timer := time.AfterFunc(time.Duration(seconds)*time.Second, func() { stop.Store(true) })
	err := drive(stop.Load)
	p.elapsed = time.Since(log.start)
	timer.Stop()
	if ferr := p.cpu.finish(d, seconds); err == nil {
		err = ferr
	}
	if err != nil {
		return p, err
	}
	if p.cpuEnd, err = d.cpuTime(); err != nil {
		return p, err
	}
	p.rss, err = d.peakRSS()
	return p, err
}

// putDaemonMetrics records the end-to-end metrics shared by the daemon
// workloads. The result line gets the medians over the calm one-second
// windows of the rate, the p50 latency and the daemon CPU per unit (see
// window.go), the median set-up time and the peak RSS; the report line adds
// the whole-phase rate, exact percentiles over every sample, CPU per unit
// and the windows themselves.
func putDaemonMetrics(m *measured, names opNames, log *sampleLog, windows int, p timedPhase, setups []float64) error {
	ws := windowMedians(log.samples, windows, p.cpu)
	if len(ws.rows) == 0 {
		return fmt.Errorf("no operation completed inside the timed windows")
	}
	var units int64
	lat := make([]float64, len(log.samples))
	for i, s := range log.samples {
		units += s.n
		lat[i] = s.lat
	}
	setup := median(setups)
	rssMB := float64(p.rss) / (1 << 20)
	m.put("ops_per_s", ws.rate, "1/s")
	m.put("op_p50_ms", ws.p50, "ms")
	m.put("cpu_ns_per_op", ws.cpuPerUnit, "ns")
	m.put("setup_s", setup, "s")
	m.put("rss_mb", rssMB, "MB")
	m.note(names.rate, float64(units)/p.elapsed.Seconds(), names.rateUnit, 0)
	m.note(names.lat+"_p50_ms", quantile(lat, 0.50)*1e3, "ms", len(lat))
	m.note(names.lat+"_p99_ms", quantile(lat, 0.99)*1e3, "ms", len(lat))
	m.note("window_"+names.lat+"_p99_ms", ws.p99, "ms", len(ws.rows))
	m.note(names.cpu, float64(p.cpuEnd-p.cpu.marks[0])/float64(units), "ns", 0)
	m.note("setup_s", setup, "s", len(setups))
	m.note("rss_mb", rssMB, "MB", 0)
	m.windows = ws.rows
	return nil
}
