package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"reactivespec/internal/core"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/workload"
)

// The daemon runs its defaults: -param-scale 10, -policy reactive. The
// expectations are computed with the same parameters.
var (
	daemonParams = core.DefaultParams().Scaled(10)
	daemonPolicy = core.PolicyReactive
)

const (
	streamFrameEvents = 1024 // events per stream-hot frame
	streamCycleFrames = 256  // distinct pre-encoded frames per stream-hot session
	streamWindow      = 16   // stream-hot pipeline window

	fleetBatchEvents = 256 // events per post-fleet POST
	fleetBatches     = 64  // distinct batches per post-fleet stream
	fleetZipfS       = 1.1 // skew of the post-fleet stream choice: an assumption, not measured traffic (README.md)
)

// mix derives an independent 64-bit seed for one input from the run seed.
func mix(seed, tag uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + tag*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is a splitmix64 sequence for the benchmark's own random choices.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mirror computes the daemon's decisions for one (program, kind) stream
// in-process: a policy set fed the identical events at the identical
// instruction counts.
type mirror struct {
	set   *core.PolicySet
	instr uint64
}

func newMirror() *mirror {
	set, err := core.NewPolicySet(daemonPolicy, daemonParams)
	if err != nil {
		panic(err) // daemonPolicy is registered
	}
	return &mirror{set: set}
}

// decide appends the encoded decision byte of each event to dst.
func (m *mirror) decide(dst []byte, events []trace.Event) []byte {
	for _, ev := range events {
		m.instr += uint64(ev.Gap)
		v, st, dir, live := m.set.OnEvent(ev.Branch, ev.Taken, m.instr)
		dst = append(dst, server.Decision{Verdict: v, State: st, Dir: dir, Live: live}.Encode())
	}
	return dst
}

// answer is the daemon's expected /decide answer for one unit.
func (m *mirror) answer(id trace.BranchID) server.Decision {
	dir, live := m.set.Speculating(id)
	return server.Decision{State: m.set.UnitState(id), Dir: dir, Live: live}
}

// digest is the 64-bit FNV-1a hash of a batch's decision bytes; the
// expectations of long runs are kept as digests instead of raw bytes.
func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// encodeDecisions appends the wire bytes of served decisions to dst.
func encodeDecisions(dst []byte, ds []server.Decision) []byte {
	for _, d := range ds {
		dst = append(dst, d.Encode())
	}
	return dst
}

// ---- stream-hot ----

// hotSession is one stream-hot session's inputs: one program's events cut
// into pre-encoded frames, sent cyclically, and the expected decision digest
// of every frame the run may send.
type hotSession struct {
	program string
	spec    *workload.Spec
	events  [][]trace.Event // per distinct frame
	frames  [][]byte        // pre-encoded, per distinct frame
	expect  []uint64        // per sent frame (index i sends frames[i%len])
}

// buildStreamHot generates the stream-hot sessions (gzip and gcc, eval
// input) and precomputes maxFrames expected digests for each. With corrupt,
// one expected byte of session 0's first timed frame is flipped.
func buildStreamHot(seed uint64, maxFrames int, corrupt bool) ([]*hotSession, error) {
	benches := []string{"gzip", "gcc"}
	sessions := make([]*hotSession, len(benches))
	errs := make([]error, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			spec, err := workload.Build(b, workload.InputEval, workload.Options{Seed: mix(seed, uint64(i))})
			if err != nil {
				errs[i] = err
				return
			}
			s := &hotSession{program: b, spec: spec}
			gen := workload.NewGenerator(spec)
			for f := 0; f < streamCycleFrames; f++ {
				evs := make([]trace.Event, streamFrameEvents)
				if n := gen.NextBatch(evs); n != len(evs) {
					errs[i] = fmt.Errorf("%s: workload ended after %d frames", b, f)
					return
				}
				s.events = append(s.events, evs)
				s.frames = append(s.frames, trace.EncodeFrameAppend(nil, evs))
			}
			m := newMirror()
			dec := make([]byte, 0, streamFrameEvents)
			s.expect = make([]uint64, maxFrames)
			for f := range s.expect {
				dec = m.decide(dec[:0], s.events[f%streamCycleFrames])
				if corrupt && i == 0 && f == streamCycleFrames {
					dec[0] ^= 0x10
				}
				s.expect[f] = digest(dec)
			}
			sessions[i] = s
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sessions, nil
}

// ---- post-fleet and restart ----

// fleetStream is one (program, kind) stream of the fleet: a benchmark's
// eval or profile input under one speculation kind.
type fleetStream struct {
	bench   string
	input   workload.InputID
	program string // bench.input
	kind    trace.Kind
	spec    *workload.Spec
	batches [][]trace.Event
}

// fleetItem is one scheduled POST: which stream, which of its batches, and
// the digest of the decisions the daemon must answer.
type fleetItem struct {
	stream uint8
	batch  uint8
	expect uint64
}

// fleet is the post-fleet input: 96 streams, each pinned to one of two
// connections, and each connection's schedule — a warm-up pass sending every
// one of its streams' batches once, then Zipf-skewed picks.
type fleet struct {
	streams []*fleetStream
	sched   [2][]fleetItem
	warm    [2]int // leading warm-up items per connection
	// mirrors hold each stream's policy state after its whole schedule.
	mirrors []*mirror
}

// buildFleetStreams generates the 96 streams: 12 benchmarks × eval/profile
// × 4 kinds.
func buildFleetStreams(seed uint64) ([]*fleetStream, error) {
	var streams []*fleetStream
	for _, b := range workload.Suite() {
		for _, in := range []workload.InputID{workload.InputEval, workload.InputProfile} {
			for k := trace.Kind(0); k < trace.KindCount; k++ {
				streams = append(streams, &fleetStream{bench: b, input: in, program: b + "." + in.String(), kind: k})
			}
		}
	}
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxProcs())
	for i, s := range streams {
		wg.Add(1)
		go func(i int, s *fleetStream) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			spec, err := workload.Build(s.bench, s.input, workload.Options{Seed: mix(seed, 100+uint64(i))})
			if err != nil {
				errs[i] = err
				return
			}
			s.spec = spec
			gen := workload.NewGenerator(spec)
			all := make([]trace.Event, fleetBatches*fleetBatchEvents)
			if n := gen.NextBatch(all); n != len(all) {
				errs[i] = fmt.Errorf("%s: workload too short (%d events)", s.program, n)
				return
			}
			for j := 0; j < fleetBatches; j++ {
				s.batches = append(s.batches, all[j*fleetBatchEvents:(j+1)*fleetBatchEvents])
			}
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return streams, nil
}

// buildFleet generates the post-fleet input with room for timedItems skewed
// picks per connection after the warm-up pass, and precomputes every
// expected digest. warmPasses repeats the warm-up pass (restart drives two).
// With corrupt, one expected byte of connection 0's first timed batch is
// flipped.
func buildFleet(seed uint64, warmPasses, timedItems int, corrupt bool) (*fleet, error) {
	streams, err := buildFleetStreams(seed)
	if err != nil {
		return nil, err
	}
	f := &fleet{streams: streams, mirrors: make([]*mirror, len(streams))}
	for i := range f.mirrors {
		f.mirrors[i] = newMirror()
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []int
			for i := c; i < len(streams); i += 2 {
				mine = append(mine, i)
			}
			sched := make([]fleetItem, 0, warmPasses*len(mine)*fleetBatches+timedItems)
			next := make(map[int]int) // stream → batches scheduled so far
			add := func(s int) {
				sched = append(sched, fleetItem{stream: uint8(s), batch: uint8(next[s] % fleetBatches)})
				next[s]++
			}
			for p := 0; p < warmPasses; p++ {
				for j := 0; j < fleetBatches; j++ {
					for _, s := range mine {
						add(s)
					}
				}
			}
			f.warm[c] = len(sched)
			// Skewed picks: popularity is a fixed property of the fleet, Zipf
			// over the connection's streams in suite order; the seed draws
			// the pick sequence. Both the exponent and the order are assumed.
			r := rng{s: mix(seed, 7+uint64(c))}
			cdf := make([]float64, len(mine))
			total := 0.0
			for i := range mine {
				total += 1 / math.Pow(float64(i+1), fleetZipfS)
				cdf[i] = total
			}
			for n := 0; n < timedItems; n++ {
				u := r.float() * total
				k := 0
				for k < len(cdf)-1 && cdf[k] < u {
					k++
				}
				add(mine[k])
			}
			dec := make([]byte, 0, fleetBatchEvents)
			for i := range sched {
				it := &sched[i]
				dec = f.mirrors[it.stream].decide(dec[:0], streams[it.stream].batches[it.batch])
				if corrupt && c == 0 && i == f.warm[c] {
					dec[0] ^= 0x10
				}
				it.expect = digest(dec)
			}
			f.sched[c] = sched
		}(c)
	}
	wg.Wait()
	return f, nil
}
