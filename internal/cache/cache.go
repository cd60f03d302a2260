// Package cache implements the simulated memory hierarchy of Table 5:
// per-core set-associative LRU L1 caches, a shared L2, a fixed main-memory
// latency, and a lightweight directory that charges coherence hop latency
// when a line moves between cores.
package cache

import "math/bits"

// Config describes one cache level.
type Config struct {
	SizeBytes int
	Assoc     int
	BlockSize int
	// Latency is the access (hit) latency in cycles.
	Latency int
}

// Table 5 configurations.
var (
	// LeadingL1 is the leading core's 64 KB 2-way 64 B-block L1 (3-cycle
	// access including address generation).
	LeadingL1 = Config{SizeBytes: 64 << 10, Assoc: 2, BlockSize: 64, Latency: 3}
	// TrailingL1 is a trailing core's 8 KB 8-way L1 (same latency).
	TrailingL1 = Config{SizeBytes: 8 << 10, Assoc: 8, BlockSize: 64, Latency: 3}
	// SharedL2 is the shared 1 MB 8-way L2 with a 10-cycle minimum access.
	SharedL2 = Config{SizeBytes: 1 << 20, Assoc: 8, BlockSize: 64, Latency: 10}
)

// MemoryLatency is the main-memory minimum latency after the L2 (Table 5).
const MemoryLatency = 200

// HopLatency is the minimum uncongested coherence hop between processors.
const HopLatency = 10

// Cache is a set-associative LRU cache. It tracks tags only (timing
// simulation), not data.
type Cache struct {
	cfg  Config
	sets int
	// setMask is sets-1 when that is a nonzero mask (every Table 5
	// level: 512, 16 and 2048 sets); otherwise it is 0 and set takes
	// the modulo.
	setMask  uint64
	ways     []way // set s is ways[s*Assoc : (s+1)*Assoc]
	tick     uint64
	Hits     uint64
	Misses   uint64
	Evicts   uint64
	blkShift uint
}

// way is one cache line's state in 16 bytes, so a set probe reads
// adjacent memory and an 8-way set spans two host cache lines.
type way struct {
	tag uint64
	// stamp is the tick of the way's last access shifted left one, OR
	// its dirty bit; 0 marks an invalid way. Ticks are distinct and
	// start at 1, so stamps order a set's valid ways by recency.
	stamp uint64
}

// New returns an empty cache. The configuration must have a power-of-two
// block size and at least one set.
func New(cfg Config) *Cache {
	if cfg.BlockSize <= 0 || cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		panic("cache: block size must be a power of two")
	}
	sets := cfg.SizeBytes / (cfg.BlockSize * cfg.Assoc)
	if sets < 1 {
		sets = 1
	}
	shift := uint(0)
	for 1<<shift < cfg.BlockSize {
		shift++
	}
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		ways:     make([]way, sets*cfg.Assoc),
		blkShift: shift,
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Block returns the block address (address with the offset bits cleared).
func (c *Cache) Block(addr uint64) uint64 { return addr >> c.blkShift }

// set returns blk's ways.
func (c *Cache) set(blk uint64) []way {
	var s int
	if c.setMask != 0 {
		s = int(blk & c.setMask)
	} else {
		s = int(blk % uint64(c.sets))
	}
	base := s * c.cfg.Assoc
	return c.ways[base : base+c.cfg.Assoc]
}

// Access looks up addr, filling the line on a miss (evicting LRU). It
// returns hit, and whether a dirty line was evicted.
func (c *Cache) Access(addr uint64, write bool) (hit, dirtyEvict bool) {
	blk := c.Block(addr)
	set := c.set(blk)
	c.tick++
	stamp := c.tick << 1
	if write {
		stamp |= 1
	}
	victim := 0
	for i := range set {
		w := &set[i]
		if w.stamp != 0 && w.tag == blk {
			w.stamp = stamp | w.stamp&1
			c.Hits++
			return true, false
		}
		if set[victim].stamp == 0 {
			continue
		}
		if w.stamp < set[victim].stamp {
			victim = i
		}
	}
	c.Misses++
	v := &set[victim]
	if v.stamp != 0 {
		c.Evicts++
	}
	dirtyEvict = v.stamp&1 != 0
	*v = way{tag: blk, stamp: stamp}
	return false, dirtyEvict
}

// Contains reports whether addr currently hits without updating LRU state.
func (c *Cache) Contains(addr uint64) bool {
	blk := c.Block(addr)
	for _, w := range c.set(blk) {
		if w.stamp != 0 && w.tag == blk {
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache (used at simulated checkpoint starts:
// "cold caches and predictors").
func (c *Cache) InvalidateAll() {
	for i := range c.ways {
		c.ways[i] = way{}
	}
}

// Hierarchy is one core's view of the memory system: a private L1 backed by
// the shared L2 and memory, with directory-based hop charges when a block
// last written by another core is accessed.
type Hierarchy struct {
	L1   *Cache
	l2   *Cache
	dir  *Directory
	core int

	L1Misses, L2Misses uint64
	CoherenceHops      uint64
}

// Directory tracks, per line (block number), the last core to write it,
// and charges hop latency when ownership moves (a minimal MOESI-flavored
// timing model: the protocol's correctness machinery is irrelevant to
// timing here, only the inter-core transfer latency matters).
//
// The owners live in a flat open-addressed table: linear probing over a
// power-of-two array of 8-byte slots kept at most 3/4 full. A cross-core
// read deletes its line by backward shift, so the table holds only owned
// lines, never a tombstone. The simulator picks the lines, not a client,
// so the probe hash needs no seed.
type Directory struct {
	// slots hold line<<ownerBits | (owner core + 1); 0 marks an empty
	// slot.
	slots []uint64
	shift uint // 64 - log2(len(slots))
	n     int  // owned lines
}

// ownerBits is the width of a slot's owner field, so the directory takes
// core IDs below 1<<ownerBits - 1 and lines below 1<<(64-ownerBits).
const (
	ownerBits = 8
	ownerMask = 1<<ownerBits - 1
	maxLine   = 1<<(64-ownerBits) - 1
)

// minDirSlots is a new directory's capacity.
const minDirSlots = 64

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	d := &Directory{}
	d.alloc(minDirSlots)
	return d
}

// alloc gives the directory n empty slots; n must be a power of two.
func (d *Directory) alloc(n int) {
	d.slots = make([]uint64, n)
	d.shift = uint(bits.LeadingZeros64(uint64(n))) + 1
}

// home is line's first probe position: Fibonacci hashing, the top bits of
// line times 2^64/φ, which spreads runs of consecutive lines evenly.
func (d *Directory) home(line uint64) int {
	return int((line * 0x9e3779b97f4a7c15) >> d.shift)
}

// slot returns line's position, or the empty position where it would go.
func (d *Directory) slot(line uint64) int {
	mask := len(d.slots) - 1
	i := d.home(line)
	for s := d.slots[i]; s != 0 && s>>ownerBits != line; s = d.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// access records core touching line (write = takes ownership) and reports
// whether the line was owned dirty by a different core (requiring a hop).
// A cross-core read demotes the line to shared, so only the first reader
// after a write pays the transfer.
func (d *Directory) access(core int, line uint64, write bool) bool {
	if line > maxLine {
		panic("cache: directory line out of range")
	}
	i := d.slot(line)
	owner := int(d.slots[i] & ownerMask) // core + 1; 0 = unowned
	moved := owner != 0 && owner-1 != core
	switch {
	case write && owner == 0:
		if 4*(d.n+1) > 3*len(d.slots) {
			d.grow()
			i = d.slot(line)
		}
		d.n++
		fallthrough
	case write:
		d.slots[i] = line<<ownerBits | uint64(core+1)
	case moved:
		d.remove(i)
	}
	return moved
}

// remove empties slot i, then shifts back each later entry of its probe
// run whose home does not lie cyclically in (hole, entry], so every
// remaining line stays reachable from its home.
func (d *Directory) remove(i int) {
	mask := len(d.slots) - 1
	for j := (i + 1) & mask; d.slots[j] != 0; j = (j + 1) & mask {
		if h := d.home(d.slots[j] >> ownerBits); (j-h)&mask >= (j-i)&mask {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = 0
	d.n--
}

// grow doubles the capacity and re-places every owned line.
func (d *Directory) grow() {
	old := d.slots
	d.alloc(2 * len(old))
	for _, s := range old {
		if s != 0 {
			d.slots[d.slot(s>>ownerBits)] = s
		}
	}
}

// Shared bundles the components shared between cores. Dir may be nil when
// a single core uses the hierarchy: no other core can own a line, so no
// access ever pays a hop.
type Shared struct {
	L2  *Cache
	Dir *Directory
}

// NewShared returns the shared L2 and directory per Table 5.
func NewShared() *Shared {
	return &Shared{L2: New(SharedL2), Dir: NewDirectory()}
}

// NewHierarchy returns core coreID's memory hierarchy with the given private
// L1 configuration.
func NewHierarchy(coreID int, l1 Config, shared *Shared) *Hierarchy {
	if coreID < 0 || coreID >= ownerMask {
		panic("cache: core ID out of the directory's range")
	}
	return &Hierarchy{
		L1:   New(l1),
		l2:   shared.L2,
		dir:  shared.Dir,
		core: coreID,
	}
}

// Access simulates a load or store and returns its latency in cycles.
func (h *Hierarchy) Access(addr uint64, write bool) int {
	lat := h.L1.cfg.Latency
	hit, _ := h.L1.Access(addr, write)
	if h.dir != nil && h.dir.access(h.core, h.L1.Block(addr), write) {
		// The block was last written by another core: a coherence hop
		// (minimum 10 cycles uncongested) fetches the fresh copy.
		h.CoherenceHops++
		lat += HopLatency
	}
	if hit {
		return lat
	}
	h.L1Misses++
	lat += h.l2.cfg.Latency
	l2hit, _ := h.l2.Access(addr, write)
	if l2hit {
		return lat
	}
	h.L2Misses++
	return lat + MemoryLatency
}
