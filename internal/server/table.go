package server

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// Table is a sharded, lock-striped table of speculation-control units keyed
// by (program, branch ID), where the program key may carry an encoded
// speculation kind (trace.EncodeKindProgram) — branch keys are the plain
// program name, so every pre-kind artifact (WAL, snapshot, shard hash,
// replication stream) is byte-identical. Each key owns an independent
// core.Unit, so per-unit decisions are bit-for-bit identical to an
// in-process policy observing the same (outcome, instruction-count)
// sequence — the striping changes only who may update concurrently, never
// what any unit decides.
//
// The policy and its parameters are fixed at construction for the whole
// table and held once, as a core.Rule; every policy runs through the same
// entry type and the same Rule.Step. An entry is the unit's state and the
// counters its Stats cannot derive from it, by value, stored in a
// per-shard slab: a shard maps
// (program ID, branch) to a slab index, and neither the map nor the slab
// holds a pointer. Program keys are interned into table-local IDs once per
// call, so the per-event lookup hashes a uint64 instead of a string. The
// interning is invisible outside the table: the shard hash is still FNV-1a
// over the program bytes and branch, and snapshots still sort by program
// name.
//
// Lock discipline: every key maps to exactly one shard (by hash), and all
// access to a shard's entries happens under that shard's mutex. Events for
// *different* keys proceed in parallel up to the shard count; events for the
// same key serialize, which is exactly the ordering the controller needs.
// Program IDs are read lock-free, once per call; assigning a new one takes
// the intern lock, never while a shard lock is held.
type Table struct {
	rule   core.Rule
	shards []tableShard

	progIDs   sync.Map   // program key (string) → program ID (uint32)
	progMu    sync.Mutex // serializes new IDs; guards progNames
	progNames []string   // program ID → program key
}

type tableShard struct {
	mu      sync.RWMutex
	index   map[uint64]int32 // entryKey(program ID, branch) → entries index
	entries []tableEntry
	metrics ShardMetrics
	_       [64]byte // pad shards onto separate cache lines
}

// tableEntry is one (program, branch) unit, by value in two cache lines:
// its policy state and the lifetime counters that state does not already
// hold. stats rebuilds the unit's core.Stats from them. Each step makes at
// most one transition and a unit is selected at most MaxOptimizations
// (a uint32) times, evicted at most once per selection and retired once,
// so the counted transitions fit 32 bits.
type tableEntry struct {
	unit                     core.Unit
	instrs, correct, misspec uint64
	// moves counts the unit's transitions by core.ClassifyTransition. The
	// core.Uncounted slot takes the monitor↔unbiased moves, which may
	// wrap; nothing reads it.
	moves [core.Retiral + 1]uint32
}

// stats rebuilds the entry's core.Stats. execs is the unit's execution
// count, which is its Events; the events neither correct nor misspeculated
// are NotSpec.
func (e *tableEntry) stats(execs uint64) core.Stats {
	return core.Stats{
		Events:     execs,
		Instrs:     e.instrs,
		Correct:    e.correct,
		Misspec:    e.misspec,
		NotSpec:    execs - e.correct - e.misspec,
		Selections: uint64(e.moves[core.Selection]),
		Evictions:  uint64(e.moves[core.Eviction]),
		Retirals:   uint64(e.moves[core.Retiral]),
	}
}

// entryKey packs an interned program ID and a branch into a shard index key.
func entryKey(pid uint32, id trace.BranchID) uint64 {
	return uint64(pid)<<32 | uint64(id)
}

// NewTable returns a table running the default reactive policy with the
// given controller parameters and shard count (clamped to at least 1).
func NewTable(params core.Params, shards int) *Table {
	t, err := NewTablePolicy(params, shards, core.PolicyReactive)
	if err != nil {
		panic(err) // the reactive policy is always registered
	}
	return t
}

// NewTablePolicy is NewTable with a registered policy name ("" = reactive).
func NewTablePolicy(params core.Params, shards int, policy string) (*Table, error) {
	rule, err := core.NewRule(policy, params)
	if err != nil {
		return nil, err
	}
	if shards < 1 {
		shards = 1
	}
	t := &Table{rule: rule, shards: make([]tableShard, shards)}
	for i := range t.shards {
		t.shards[i].index = make(map[uint64]int32)
	}
	return t, nil
}

// Params returns the controller parameters every entry runs with.
func (t *Table) Params() core.Params { return t.rule.Params() }

// Policy returns the registered policy name every entry runs.
func (t *Table) Policy() string { return t.rule.Name() }

// Shards returns the shard count.
func (t *Table) Shards() int { return len(t.shards) }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// programHash is the FNV-1a hash of the program name: the shared prefix of
// every (program, branch) shard hash, computed once per batch.
func programHash(program string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(program); i++ {
		h ^= uint64(program[i])
		h *= fnvPrime64
	}
	return h
}

// shardIndex finishes the FNV-1a hash with the branch ID bytes and maps it
// onto a shard.
func (t *Table) shardIndex(ph uint64, id trace.BranchID) int {
	h := ph
	for s := 0; s < 32; s += 8 {
		h ^= uint64(id>>s) & 0xff
		h *= fnvPrime64
	}
	return int(h % uint64(len(t.shards)))
}

// shardFor hashes (program, branch) onto a shard with FNV-1a.
func (t *Table) shardFor(program string, id trace.BranchID) *tableShard {
	return &t.shards[t.shardIndex(programHash(program), id)]
}

// lookup returns program's ID, if it has one.
func (t *Table) lookup(program string) (uint32, bool) {
	pid, ok := t.progIDs.Load(program)
	if !ok {
		return 0, false
	}
	return pid.(uint32), true
}

// intern returns program's ID, assigning the next one on first sight.
func (t *Table) intern(program string) uint32 {
	if pid, ok := t.lookup(program); ok {
		return pid
	}
	t.progMu.Lock()
	defer t.progMu.Unlock()
	if pid, ok := t.lookup(program); ok {
		return pid
	}
	// The caller's string may alias a reused buffer; keep a copy.
	program = strings.Clone(program)
	pid := uint32(len(t.progNames))
	t.progNames = append(t.progNames, program)
	t.progIDs.Store(program, pid)
	return pid
}

// getLocked returns the entry for key, creating it on first sight. The
// caller holds sh.mu. The pointer is valid until the next getLocked on the
// same shard, which may grow the slab.
func (sh *tableShard) getLocked(key uint64) *tableEntry {
	i, ok := sh.index[key]
	if !ok {
		i = int32(len(sh.entries))
		sh.entries = append(sh.entries, tableEntry{})
		sh.index[key] = i
	}
	return &sh.entries[i]
}

// applyOne advances entry e by one event whose absolute instruction count
// is instr, bumps the entry's and the shard's counters, and returns the
// decision. The caller holds the entry's shard lock.
func (t *Table) applyOne(e *tableEntry, m *ShardMetrics, ev trace.Event, instr uint64) Decision {
	gap := uint64(ev.Gap)
	e.instrs += gap
	from := e.unit.State()
	v := t.rule.Step(&e.unit, ev.Taken, instr)
	st := e.unit.State()
	if st != from {
		m.Transitions[st]++
		e.moves[core.ClassifyTransition(from, st)]++
	}
	m.Events++
	m.Instrs += gap
	switch v {
	case core.Correct:
		e.correct++
		m.Correct++
	case core.Misspec:
		e.misspec++
		m.Misspec++
	default:
		m.NotSpec++
	}
	dir, live := e.unit.Speculating()
	return Decision{Verdict: v, State: st, Dir: dir, Live: live}
}

// ApplyBatchKind observes a run of dynamic events for program under a
// speculation kind, in order, starting at global instruction count
// startInstr, and appends one encoded decision byte per event to dst. It
// returns the extended slice and the instruction count after the last
// event. The kind is encoded into the table key (trace.EncodeKindProgram),
// so kind=branch keys the plain program name.
//
// Events for the same program and kind must not be applied concurrently
// (the ingest path's cursor lock already guarantees this); batches for
// different keys may run in parallel. The serving paths decode each frame
// once on ingress and reach the table through commit, which calls
// applyEvents on the kind-encoded key directly.
func (t *Table) ApplyBatchKind(program string, kind trace.Kind, events []trace.Event, startInstr uint64, dst []byte) ([]byte, uint64) {
	return t.applyEvents(trace.EncodeKindProgram(kind, program), events, startInstr, dst)
}

// maxPooledEvents caps the batch size whose scratch goes back to
// applyScratchPool, frameEventsPool and ingestScratchPool, and the event
// scratch a stream session keeps between frames. POST bodies and frames
// carry no event cap of their own, so without it one huge batch would pin
// its scratch (about 28 B per event for apply, 12 B per decoded event) for
// as long as traffic keeps the pools warm; an over-cap batch allocates its
// own and leaves it to the GC.
const maxPooledEvents = 1 << 16

// applyScratch is the per-batch workspace applyEvents needs: the absolute
// instruction count at each event, the counting-sort of event indices by
// shard, and the per-shard bucket cursors.
type applyScratch struct {
	instr  []uint64
	shard  []int32
	idx    []int32
	bucket []int32
}

var applyScratchPool = sync.Pool{New: func() any { return new(applyScratch) }}

// applyEvents is the one apply schedule, shared by commit, ApplyBatchKind
// and ApplyFrame: one lock acquisition per touched shard per batch. Pass one
// walks the events lock-free, recording each event's absolute instruction
// count (the prefix sum of gaps over the whole batch — a controller only
// needs its own events' counts, which don't depend on when other shards
// apply) and counting-sorting the event indices by shard, preserving
// original order within each shard. Pass two applies each shard's
// sub-batch under a single lock hold, writing every decision byte to its
// event's original position.
//
// A branch never spans shards, so every controller still sees its events
// in trace order at the same instruction counts: the decisions and shard
// counters are bit-for-bit those of applying the events one at a time
// (TestApplyBatchMatchesApply pins both). The program key is hashed and
// interned once per batch.
func (t *Table) applyEvents(program string, events []trace.Event, startInstr uint64, dst []byte) ([]byte, uint64) {
	if len(events) == 0 {
		return dst, startInstr
	}
	ph := programHash(program)
	pid := t.intern(program)
	n := len(events)
	ns := len(t.shards)
	sc := applyScratchPool.Get().(*applyScratch)
	if cap(sc.instr) < n {
		sc.instr = make([]uint64, n)
		sc.shard = make([]int32, n)
		sc.idx = make([]int32, n)
	}
	sc.instr = sc.instr[:n]
	sc.shard = sc.shard[:n]
	sc.idx = sc.idx[:n]
	if cap(sc.bucket) < ns {
		sc.bucket = make([]int32, ns)
	}
	sc.bucket = sc.bucket[:ns]
	for i := range sc.bucket {
		sc.bucket[i] = 0
	}

	instr := startInstr
	for i := range events {
		instr += uint64(events[i].Gap)
		sc.instr[i] = instr
		si := int32(t.shardIndex(ph, events[i].Branch))
		sc.shard[i] = si
		sc.bucket[si]++
	}
	off := int32(0)
	for s := range sc.bucket {
		c := sc.bucket[s]
		sc.bucket[s] = off
		off += c
	}
	for i := 0; i < n; i++ {
		s := sc.shard[i]
		sc.idx[sc.bucket[s]] = int32(i)
		sc.bucket[s]++
	}

	// Reserve the decision bytes up front so pass two can write each one at
	// its event's original position; after the counting sort, bucket[s] is
	// shard s's end offset in idx.
	base := len(dst)
	if cap(dst) < base+n {
		nd := make([]byte, base, base+n)
		copy(nd, dst)
		dst = nd
	}
	dst = dst[:base+n]
	out := dst[base:]

	start := int32(0)
	for s := 0; s < ns; s++ {
		end := sc.bucket[s]
		if end == start {
			continue
		}
		sh := &t.shards[s]
		sh.mu.Lock()
		var (
			lastBranch trace.BranchID
			lastEntry  *tableEntry
		)
		m := &sh.metrics
		for _, i := range sc.idx[start:end] {
			ev := events[i]
			e := lastEntry
			if e == nil || ev.Branch != lastBranch {
				e = sh.getLocked(entryKey(pid, ev.Branch))
				lastBranch, lastEntry = ev.Branch, e
			}
			out[i] = t.applyOne(e, m, ev, sc.instr[i]).Encode()
		}
		sh.mu.Unlock()
		start = end
	}
	if cap(sc.instr) <= maxPooledEvents {
		applyScratchPool.Put(sc)
	}
	return dst, instr
}

// frameEventsPool holds the reusable []trace.Event scratch ApplyFrame
// decodes payloads into; steady state it allocates nothing.
var frameEventsPool = sync.Pool{New: func() any { return new([]trace.Event) }}

// ApplyFrame is ApplyBatchKind over a validated wire frame payload, with
// the kind already encoded into program: it decodes the payload into a
// pooled scratch slice (amortized zero-alloc — the events never escape the
// call) and applies it as one batch. The serving paths never call it — they
// decode on ingress and hand commit the events — but perfbench's traced
// replay drives the table through it. The payload must already have passed
// trace.ValidateFrame; an undecodable one panics rather than apply a prefix.
//
// The decisions, the final instruction count, and every shard counter are
// bit-for-bit what applying DecodeFrame(payload) as one batch would
// produce (TestApplyFrameMatchesApplyBatch pins this).
func (t *Table) ApplyFrame(program string, payload []byte, startInstr uint64, dst []byte) ([]byte, uint64) {
	evp := frameEventsPool.Get().(*[]trace.Event)
	evs, err := trace.DecodeFrameAppend(payload, (*evp)[:0])
	if err != nil {
		// Unreachable for validated payloads; fail loudly rather than
		// apply a prefix of a corrupt frame.
		frameEventsPool.Put(evp)
		panic("server: ApplyFrame on unvalidated payload: " + err.Error())
	}
	dst, instr := t.applyEvents(program, evs, startInstr, dst)
	if cap(evs) <= maxPooledEvents {
		*evp = evs[:0]
		frameEventsPool.Put(evp)
	}
	return dst, instr
}

// Decide returns the unit's current classification without observing an
// event. Unknown keys report the Monitor default; neither the key nor its
// program is created. It takes only read locks, so concurrent deciders
// never serialize against each other — only against writers on the same
// shard.
func (t *Table) Decide(program string, id trace.BranchID) Decision {
	pid, ok := t.lookup(program)
	if !ok {
		return Decision{State: core.Monitor}
	}
	sh := t.shardFor(program, id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	i, ok := sh.index[entryKey(pid, id)]
	if !ok {
		return Decision{State: core.Monitor}
	}
	u := &sh.entries[i].unit
	dir, live := u.Speculating()
	return Decision{State: u.State(), Dir: dir, Live: live}
}

// DecideKind is Decide with an explicit speculation kind.
func (t *Table) DecideKind(program string, kind trace.Kind, id trace.BranchID) Decision {
	return t.Decide(trace.EncodeKindProgram(kind, program), id)
}

// Metrics returns a copy of every shard's counters, indexed by shard. Like
// Decide it is a pure read-lock path: metric scrapes never stall ingest
// writers behind each other.
func (t *Table) Metrics() []ShardMetrics {
	out := make([]ShardMetrics, len(t.shards))
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		out[i] = sh.metrics
		out[i].Entries = uint64(len(sh.index))
		sh.mu.RUnlock()
	}
	return out
}

// EntrySnapshot is the serialized state of one (program, branch) entry. The
// Program field is the table key — for non-branch kinds, the encoded
// kind-program.
type EntrySnapshot struct {
	Program string
	Branch  trace.BranchID
	State   core.BranchState
	Stats   core.Stats
}

// SnapshotEntries exports every touched entry, sorted by (program, branch)
// so snapshots are deterministic, whatever order the programs were first
// seen in. Each shard is captured atomically under its lock; concurrent
// ingest interleaving between shards yields per-entry (not cross-entry)
// consistency, which is sufficient because entries never observe each
// other. The daemon's shutdown snapshot runs after the drain, so it is
// fully consistent.
func (t *Table) SnapshotEntries() []EntrySnapshot {
	var (
		out  []EntrySnapshot
		pids []uint32
	)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for key, idx := range sh.index {
			e := &sh.entries[idx]
			st, ok := e.unit.Export()
			if !ok {
				continue
			}
			out = append(out, EntrySnapshot{Branch: trace.BranchID(key), State: st, Stats: e.stats(st.Execs)})
			pids = append(pids, uint32(key>>32))
		}
		sh.mu.RUnlock()
	}
	// Every ID seen above was interned before its entry was created, so
	// reading the names afterwards finds them all.
	t.progMu.Lock()
	for i := range out {
		out[i].Program = t.progNames[pids[i]]
	}
	t.progMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Program != out[j].Program {
			return out[i].Program < out[j].Program
		}
		return out[i].Branch < out[j].Branch
	})
	return out
}

// RestoreEntries imports previously exported entries, overwriting any
// existing state for the same keys. It checks every entry first and, when
// one holds what an entry cannot represent, returns an error wrapping
// ErrSnapshotMismatch without touching the table.
func (t *Table) RestoreEntries(entries []EntrySnapshot) error {
	for i := range entries {
		if err := checkEntry(&entries[i]); err != nil {
			return fmt.Errorf("%w: entry %d (%q, branch %d): %v",
				ErrSnapshotMismatch, i, entries[i].Program, entries[i].Branch, err)
		}
	}
	var (
		program string
		pid     uint32
		ph      uint64
	)
	for i, es := range entries {
		// Snapshots come sorted by program: intern and hash each once.
		if i == 0 || es.Program != program {
			program, pid, ph = es.Program, t.intern(es.Program), programHash(es.Program)
		}
		sh := &t.shards[t.shardIndex(ph, es.Branch)]
		sh.mu.Lock()
		e := sh.getLocked(entryKey(pid, es.Branch))
		if err := e.unit.Import(es.State); err != nil {
			panic("server: RestoreEntries: checked entry failed Import: " + err.Error())
		}
		s := &es.Stats
		e.instrs, e.correct, e.misspec = s.Instrs, s.Correct, s.Misspec
		e.moves = [...]uint32{core.Selection: uint32(s.Selections), core.Eviction: uint32(s.Evictions), core.Retiral: uint32(s.Retirals)}
		sh.mu.Unlock()
	}
	return nil
}

// checkEntry reports whether an entry can hold es exactly, so that
// SnapshotEntries would export it unchanged: the state passes Validate and
// is touched, and the Stats are those the entry rebuilds — Events equal to
// the unit's execution count, the verdict counts summing to Events, and
// transition counts within 32 bits.
func checkEntry(es *EntrySnapshot) error {
	if err := es.State.Validate(); err != nil {
		return err
	}
	st, s := &es.State, &es.Stats
	switch {
	case st.Execs == 0 && st.State == core.Monitor:
		return errors.New("untouched unit")
	case s.Events != st.Execs:
		return fmt.Errorf("Events = %d, but the unit executed %d times", s.Events, st.Execs)
	case s.Correct > s.Events || s.Misspec > s.Events-s.Correct || s.NotSpec != s.Events-s.Correct-s.Misspec:
		return fmt.Errorf("Correct %d + Misspec %d + NotSpec %d != Events %d", s.Correct, s.Misspec, s.NotSpec, s.Events)
	case s.Selections > math.MaxUint32 || s.Evictions > math.MaxUint32 || s.Retirals > math.MaxUint32:
		return fmt.Errorf("transition counts %d/%d/%d exceed %d", s.Selections, s.Evictions, s.Retirals, uint64(math.MaxUint32))
	}
	return nil
}
