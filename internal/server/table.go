package server

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"sync"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// Table is a lock-striped table of speculation-control units keyed by
// (program, branch ID), where the program key may carry an encoded
// speculation kind (trace.EncodeKindProgram) — branch keys are the plain
// program name, so every pre-kind artifact (WAL, snapshot, replication
// stream) is byte-identical. Each key owns an independent core.Unit, so
// per-unit decisions are bit-for-bit identical to an in-process policy
// observing the same (outcome, instruction-count) sequence — the striping
// changes only who may update concurrently, never what any unit decides.
//
// The policy and its parameters are fixed at construction for the whole
// table and held once, as a core.Rule; every policy runs through the same
// entry type and the same Rule.Step. An entry is the unit's state and the
// counters its Stats cannot derive from it, by value, stored in a
// per-stripe slab: a stripe's flat index maps (program ID, branch) to a
// slab index, and neither the index nor the slab holds a pointer. The flat
// index is the only owner of keys; snapshots walk it and sort by program
// name.
//
// Program keys are interned once per call into a per-program record that
// names the program's ID and stripe and holds its dense slots: an array
// from branch ID to slab index that resolves a branch with one load, no
// hash and no probe. Dense slots rely on a program's branch IDs being
// dense, as the suite's static branch IDs are (0..N−1). A lookup the slots
// miss goes to the flat index, which then slots the branch only if its ID
// is below the program's dense bound, max(64, 4·entries) for a program with
// that many entries; the array never grows past that bound, so sparse or
// hostile IDs (1<<31, 0xFFFFFFFF) cost no dense memory and keep the seeded
// probe.
//
// Lock discipline: a program key maps to exactly one stripe, by FNV-1a over
// its bytes when it is interned, so every unit of a program lives there and
// all access to a stripe's entries, and to its programs' dense slots and
// entry counts, happens under that stripe's mutex. A batch is one program's
// events, so it takes one lock acquisition. Batches for programs on
// different stripes proceed in parallel; a program's own batches are
// already serialized by the caller (the ingest path's cursor lock), so
// striping by branch would add no parallelism. Program records are read
// lock-free, once per call; interning a new one takes the intern lock,
// never while a stripe lock is held.
type Table struct {
	rule   core.Rule
	shards []tableShard

	progs     sync.Map   // program key (string) → *progRecord
	progMu    sync.Mutex // serializes new IDs; guards progNames
	progNames []string   // program ID → program key
}

// progRecord is one interned program key: its table-local ID and stripe,
// fixed when it is interned, and, guarded by that stripe's lock, its entry
// count and dense slots.
type progRecord struct {
	id      uint32
	sh      *tableShard
	entries int     // the program's entries in the stripe's slab
	dense   []int32 // branch ID → slab index + 1; 0 = not slotted
}

// A program's dense slots never outgrow max(minDenseSlots,
// denseSlotsPerEntry·entries).
const (
	minDenseSlots      = 64
	denseSlotsPerEntry = 4
)

type tableShard struct {
	mu      sync.RWMutex
	index   flatIndex // entryKey(program ID, branch) → entries index
	entries []tableEntry
	metrics ShardMetrics
	_       [64]byte // pad shards onto separate cache lines
}

// flatIndex is an open-addressed hash index from a uint64 key to an int32:
// linear probing over a power-of-two table kept at most half full. A slot
// holds its value + 1, so 0 marks it empty and every key is storable. The
// probe hash mixes the key with a per-index random seed: keys come from
// clients, and an unseeded hash would let one program pile its branches
// onto a single probe chain.
type flatIndex struct {
	seed  uint64
	keys  []uint64
	slots []int32 // value + 1; 0 = empty
	n     int
}

// minIndexSlots is a new index's capacity.
const minIndexSlots = 8

func newFlatIndex(seed uint64) flatIndex {
	return flatIndex{seed: seed, keys: make([]uint64, minIndexSlots), slots: make([]int32, minIndexSlots)}
}

// home is key's first probe position: the murmur3 64-bit finalizer over the
// key XOR the seed, masked to the capacity.
func (x *flatIndex) home(key uint64) int {
	h := key ^ x.seed
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h & uint64(len(x.keys)-1))
}

// slot returns key's position, or the empty position where it would go.
func (x *flatIndex) slot(key uint64) int {
	mask := len(x.keys) - 1
	i := x.home(key)
	for x.slots[i] != 0 && x.keys[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// get returns key's value, if it has one.
func (x *flatIndex) get(key uint64) (int32, bool) {
	v := x.slots[x.slot(key)]
	return v - 1, v != 0
}

// getOrPut returns key's value, first storing next for it if key is absent;
// added reports whether it stored.
func (x *flatIndex) getOrPut(key uint64, next int32) (v int32, added bool) {
	i := x.slot(key)
	if x.slots[i] != 0 {
		return x.slots[i] - 1, false
	}
	if 2*(x.n+1) > len(x.keys) {
		x.grow()
		i = x.slot(key)
	}
	x.keys[i], x.slots[i] = key, next+1
	x.n++
	return next, true
}

// grow doubles the capacity and re-places every key.
func (x *flatIndex) grow() {
	keys, slots := x.keys, x.slots
	x.keys = make([]uint64, 2*len(keys))
	x.slots = make([]int32, 2*len(slots))
	for i, v := range slots {
		if v != 0 {
			j := x.slot(keys[i])
			x.keys[j], x.slots[j] = keys[i], v
		}
	}
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

// entryKey packs an interned program ID and a branch into an index key.
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
		t.shards[i].index = newFlatIndex(rand.Uint64())
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

// shardIndex maps a program key onto its stripe: FNV-1a over the key's
// bytes, mod the stripe count. It runs once per program, when the key is
// interned; the record names the stripe from then on.
func (t *Table) shardIndex(program string) int {
	h := uint64(fnvOffset64)
	for i := 0; i < len(program); i++ {
		h ^= uint64(program[i])
		h *= fnvPrime64
	}
	return int(h % uint64(len(t.shards)))
}

// lookup returns program's record, if it has one.
func (t *Table) lookup(program string) (*progRecord, bool) {
	p, ok := t.progs.Load(program)
	if !ok {
		return nil, false
	}
	return p.(*progRecord), true
}

// intern returns program's record, assigning the next ID on first sight.
func (t *Table) intern(program string) *progRecord {
	if p, ok := t.lookup(program); ok {
		return p
	}
	t.progMu.Lock()
	defer t.progMu.Unlock()
	if p, ok := t.lookup(program); ok {
		return p
	}
	// The caller's string may alias a reused buffer; keep a copy.
	program = strings.Clone(program)
	p := &progRecord{id: uint32(len(t.progNames)), sh: &t.shards[t.shardIndex(program)]}
	t.progNames = append(t.progNames, program)
	t.progs.Store(program, p)
	return p
}

// getLocked returns the slab index of p's entry for id, creating the entry
// on first sight, through the flat index alone. The caller holds p's stripe
// lock.
func (p *progRecord) getLocked(id trace.BranchID) int32 {
	sh := p.sh
	i, added := sh.index.getOrPut(entryKey(p.id, id), int32(len(sh.entries)))
	if added {
		sh.entries = append(sh.entries, tableEntry{})
		p.entries++
	}
	return i
}

// missLocked is getLocked for a branch p's dense slots do not hold: it also
// slots the branch when its ID is below the dense bound, growing the array
// at least twofold but never past the bound. An existing entry costs one
// probe; only a new one goes through getLocked. applyEvents calls it out of
// line, so its loop stays small. The caller holds p's stripe lock.
//
//go:noinline
func (p *progRecord) missLocked(id trace.BranchID) int32 {
	i, ok := p.sh.index.get(entryKey(p.id, id))
	if !ok {
		i = p.getLocked(id)
	}
	bound := max(minDenseSlots, denseSlotsPerEntry*p.entries)
	if uint64(id) >= uint64(bound) {
		return i
	}
	if int(id) >= len(p.dense) {
		dense := make([]int32, min(bound, max(2*len(p.dense), int(id)+1)))
		copy(dense, p.dense)
		p.dense = dense
	}
	p.dense[id] = i + 1
	return i
}

// findLocked returns the slab index of p's entry for id, if it has one,
// from the dense slots or else the flat index; it creates and slots
// nothing. The caller holds p's stripe lock in either mode.
func (p *progRecord) findLocked(id trace.BranchID) (int32, bool) {
	if uint64(id) < uint64(len(p.dense)) {
		if v := p.dense[id]; v != 0 {
			return v - 1, true
		}
	}
	return p.sh.index.get(entryKey(p.id, id))
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
// frameEventsPool and ingestScratchPool, and the event scratch a stream
// session keeps between frames. POST bodies and frames carry no event cap
// of their own, so without it one huge batch would pin its scratch (about
// 12 B per decoded event) for as long as traffic keeps the pools warm; an
// over-cap batch allocates its own and leaves it to the GC.
const maxPooledEvents = 1 << 16

// applyEvents is the one apply path, shared by commit, ApplyBatchKind and
// ApplyFrame. The batch is one program's, so it lives in one stripe: it
// interns the program key once, takes the stripe's lock once and walks the
// events in order, summing the gaps into each event's absolute instruction
// count, resolving each branch with one load from the program's dense
// slots (missLocked, out of line, when they do not hold it) and writing
// each decision byte in place. The stripe's counters are bumped per event:
// summing them once per batch measured no faster. TestApplyBatchMatchesApply
// and TestApplyDenseMatchesRef pin the decisions and stripe counters
// bit-for-bit against applying the events one at a time through the flat
// index alone.
func (t *Table) applyEvents(program string, events []trace.Event, startInstr uint64, dst []byte) ([]byte, uint64) {
	if len(events) == 0 {
		return dst, startInstr
	}
	p := t.intern(program)
	sh := p.sh
	base := len(dst)
	dst = slices.Grow(dst, len(events))[:base+len(events)]
	out := dst[base:]
	instr := startInstr
	sh.mu.Lock()
	m := &sh.metrics
	dense, entries := p.dense, sh.entries
	for i, ev := range events {
		instr += uint64(ev.Gap)
		var v int32
		if uint64(ev.Branch) < uint64(len(dense)) {
			v = dense[ev.Branch]
		}
		if v == 0 {
			v = p.missLocked(ev.Branch) + 1
			dense, entries = p.dense, sh.entries
		}
		out[i] = t.applyOne(&entries[v-1], m, ev, instr).Encode()
	}
	sh.mu.Unlock()
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
// program is created, and no dense slot is filled. It takes only read locks, so concurrent deciders
// never serialize against each other — only against writers on the same
// shard.
func (t *Table) Decide(program string, id trace.BranchID) Decision {
	p, ok := t.lookup(program)
	if !ok {
		return Decision{State: core.Monitor}
	}
	sh := p.sh
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	i, ok := p.findLocked(id)
	if !ok {
		return Decision{State: core.Monitor}
	}
	u := &sh.entries[i].unit
	dir, live := u.Speculating()
	return Decision{State: u.State(), Dir: dir, Live: live}
}

// DenseSlotted reports whether program's entry for id is in the program's
// dense slots, so applying an event for it takes no flat-index probe. Like
// Decide it takes a read lock and changes nothing; the ingest benchmarks
// use it to state the share of their events the dense slots serve.
func (t *Table) DenseSlotted(program string, id trace.BranchID) bool {
	p, ok := t.lookup(program)
	if !ok {
		return false
	}
	p.sh.mu.RLock()
	defer p.sh.mu.RUnlock()
	return uint64(id) < uint64(len(p.dense)) && p.dense[id] != 0
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
		out[i].Entries = uint64(len(sh.entries))
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
		for j, v := range sh.index.slots {
			if v == 0 {
				continue
			}
			key, e := sh.index.keys[j], &sh.entries[v-1]
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
	var p *progRecord
	for i, es := range entries {
		// Snapshots come sorted by program: intern each once.
		if i == 0 || es.Program != entries[i-1].Program {
			p = t.intern(es.Program)
		}
		sh := p.sh
		sh.mu.Lock()
		e := &sh.entries[p.missLocked(es.Branch)]
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
