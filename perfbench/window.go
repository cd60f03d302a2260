package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// stealTime returns the host-wide steal time so far (the eighth value of
// the cpu line of /proc/stat), or 0 where the kernel does not report it.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(v) * time.Second / clockTicks
}

// A timed phase is cut into one-second windows by completion time. On a
// shared host the hypervisor takes CPU time from the machine in bursts
// (steal time), and every figure of a window moves with it. The result line
// reports the median of each window's rate, latency percentiles and daemon
// CPU per operation over the calm windows: those whose steal time stayed
// under calmSteal of the machine's CPU capacity, or, when fewer than
// minCalm windows were calm, the minCalm least stolen. The report line keeps
// every window, with its steal time, and the whole-phase figures,
// percentiles exact over every sample.

const (
	calmSteal = 0.02
	minCalm   = 3
)

// calm returns the indices of the calm items among n, given each item's
// steal fraction, in their original order.
func calm(n int, steal func(i int) float64) []int {
	var idx []int
	for i := 0; i < n; i++ {
		if steal(i) <= calmSteal {
			idx = append(idx, i)
		}
	}
	if len(idx) >= minCalm || len(idx) == n {
		return idx
	}
	idx = idx[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal(idx[a]) < steal(idx[b]) })
	idx = idx[:min(minCalm, n)]
	sort.Ints(idx)
	return idx
}

// sample is one completed operation: when it completed (since the phase
// started), how long it took, and how many units of work (events or
// queries) it decided.
type sample struct {
	at  time.Duration
	lat float64 // seconds
	n   int64
}

// cpuSampler reads a daemon's CPU time, and the host's steal time (CPU
// time the hypervisor gave to other guests), at the start of the timed phase
// and at every window boundary after it.
type cpuSampler struct {
	marks []time.Duration
	steal []time.Duration
	err   error
	stop  chan struct{}
	done  chan struct{}
}

func startCPUSampler(d *daemon, windows int) *cpuSampler {
	c := &cpuSampler{stop: make(chan struct{}), done: make(chan struct{})}
	first, err := d.cpuTime()
	c.marks = append(c.marks, first)
	c.steal = append(c.steal, stealTime())
	c.err = err
	go func() {
		defer close(c.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for len(c.marks) <= windows && c.err == nil {
			select {
			case <-tick.C:
				v, err := d.cpuTime()
				c.marks = append(c.marks, v)
				c.steal = append(c.steal, stealTime())
				c.err = err
			case <-c.stop:
				return
			}
		}
	}()
	return c
}

// finish stops the sampler, closing the last window with a final mark if
// its tick has not come yet.
func (c *cpuSampler) finish(d *daemon, windows int) error {
	close(c.stop)
	<-c.done
	if c.err == nil && len(c.marks) <= windows {
		v, err := d.cpuTime()
		c.marks = append(c.marks, v)
		c.steal = append(c.steal, stealTime())
		c.err = err
	}
	return c.err
}

// window is one full second of a timed phase.
type window struct {
	Units      int64   `json:"units"`
	P50ms      float64 `json:"p50_ms"`
	P99ms      float64 `json:"p99_ms"`
	CPUPerUnit float64 `json:"cpu_ns_per_unit"`
	StealFrac  float64 `json:"steal_frac"` // host steal time over the window's CPU capacity
	Samples    int     `json:"samples"`
	Calm       bool    `json:"calm"` // counted in the result line's medians
}

// windowStats are the per-window figures and the medians over the calm
// windows.
type windowStats struct {
	rows       []window
	rate       float64 // units per second
	p50, p99   float64 // milliseconds
	cpuPerUnit float64 // nanoseconds
}

// windowMedians buckets samples into the phase's full one-second windows
// and returns the per-window figures and, over the calm windows, the median
// of each.
func windowMedians(samples []sample, windows int, c *cpuSampler) windowStats {
	units := make([]int64, windows)
	lats := make([][]float64, windows)
	for _, s := range samples {
		k := int(s.at / time.Second)
		if k < 0 || k >= windows {
			continue
		}
		units[k] += s.n
		lats[k] = append(lats[k], s.lat)
	}
	var ws windowStats
	for k := 0; k < windows; k++ {
		if units[k] == 0 || k+1 >= len(c.marks) {
			continue
		}
		w := window{
			Units:      units[k],
			Samples:    len(lats[k]),
			P50ms:      quantile(lats[k], 0.50) * 1e3,
			P99ms:      quantile(lats[k], 0.99) * 1e3,
			CPUPerUnit: float64(c.marks[k+1]-c.marks[k]) / float64(units[k]),
			StealFrac:  float64(c.steal[k+1]-c.steal[k]) / float64(time.Second*time.Duration(maxProcs())),
		}
		ws.rows = append(ws.rows, w)
	}
	var rates, p50s, p99s, cpus []float64
	for _, i := range calm(len(ws.rows), func(i int) float64 { return ws.rows[i].StealFrac }) {
		w := &ws.rows[i]
		w.Calm = true
		rates = append(rates, float64(w.Units))
		p50s = append(p50s, w.P50ms)
		p99s = append(p99s, w.P99ms)
		cpus = append(cpus, w.CPUPerUnit)
	}
	ws.rate = median(rates)
	ws.p50 = median(p50s)
	ws.p99 = median(p99s)
	ws.cpuPerUnit = median(cpus)
	return ws
}

// sampleLog collects samples from concurrent loaders.
type sampleLog struct {
	mu      sync.Mutex
	start   time.Time
	samples []sample
}

// add records one operation of n units that completed at done after lat.
func (l *sampleLog) add(done time.Time, lat time.Duration, n int64) {
	l.mu.Lock()
	l.samples = append(l.samples, sample{at: done.Sub(l.start), lat: lat.Seconds(), n: n})
	l.mu.Unlock()
}

// quantile returns the exact p-quantile of the samples by nearest rank: the
// smallest sample with at least p of all samples at or below it. It sorts
// samples in place.
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	i := int(math.Ceil(p*float64(len(samples)))) - 1
	if i < 0 {
		i = 0
	}
	return samples[i]
}

// median returns the median of the samples (the mean of the middle two for
// an even count). It sorts samples in place.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	n := len(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}
