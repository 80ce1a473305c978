// Package cache models the memory hierarchy of Table 2: per-core L1D, a
// shared SRAM L2 (optionally a private L2 + shared L3 for the Figure 14
// study), a direct-mapped DRAM cache (PMEM memory mode), and the NVM device
// below. It also implements the L1D write buffer that carries PPA's
// asynchronous store persistence with persist coalescing (Section 4.3).
//
// The hierarchy is split into two layers:
//
//   - a timing layer: set-associative tag arrays that decide hit level,
//     latency, and evictions;
//   - a functional layer: a single "volatile dirty words" map holding every
//     word value that has been written but is not yet durable in NVM. A
//     power failure drops this map (and the write buffers); recovery
//     correctness is judged against what survived in the NVM image.
package cache

import (
	"ppa/internal/isa"
)

// saWay is one way's tag state. The fields pack to 16 bytes so a whole
// 4-way set shares one hardware cache line — the tag arrays are probed
// several times per simulated cycle, and the previous parallel-slice layout
// (tags/valid/dirty/lru in four separate arrays) cost four cache lines per
// probe.
type saWay struct {
	tag   uint64
	lru   uint32
	valid bool
	dirty bool
}

// setsPerPage is the number of sets in one tag-array page. A page is
// allocated on the first install into any of its sets, so building (or
// power-failing) a hierarchy costs only the page tables, and a run pays for
// the sets it touches. The value was chosen by measuring 1, 4, 16 and 64 on
// the crash-sweep and litmus benchmarks.
const setsPerPage = 16

// setAssoc is an LRU set-associative tag array.
type setAssoc struct {
	ways    int
	setMask uint64
	// pages[p] holds the ways of sets p*setsPerPage onward, set-major; a
	// nil page reads as all-invalid, exactly like a zeroed one.
	pages [][]saWay
	clock uint32

	Hits   uint64
	Misses uint64
}

// newSetAssoc builds a cache with the given total size in bytes and
// associativity; sets = size / (64 * ways). Size must make sets a power of
// two, which all Table 2 configurations do.
func newSetAssoc(sizeBytes uint64, ways int) *setAssoc {
	sets := sizeBytes / uint64(isa.LineSize) / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	// Round down to a power of two.
	p := uint64(1)
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	return &setAssoc{
		ways:    ways,
		setMask: sets - 1,
		pages:   make([][]saWay, (sets+setsPerPage-1)/setsPerPage),
	}
}

// set returns the ways of line's set, or nil when no install has touched
// its page yet.
func (c *setAssoc) set(line uint64) []saWay {
	s := (line / isa.LineSize) & c.setMask
	pg := c.pages[s/setsPerPage]
	if pg == nil {
		return nil
	}
	base := int(s%setsPerPage) * c.ways
	return pg[base : base+c.ways]
}

// newPage allocates the all-invalid page holding line's set and returns
// that set.
func (c *setAssoc) newPage(line uint64) []saWay {
	s := (line / isa.LineSize) & c.setMask
	c.pages[s/setsPerPage] = make([]saWay, min(c.setMask+1, setsPerPage)*uint64(c.ways))
	return c.set(line)
}

// lookup probes the array without changing state; returns the line's way
// or nil.
func (c *setAssoc) lookup(line uint64) *saWay {
	set := c.set(line)
	for w := range set {
		if e := &set[w]; e.valid && e.tag == line {
			return e
		}
	}
	return nil
}

// access probes and updates LRU; returns hit.
func (c *setAssoc) access(line uint64, write bool) bool {
	c.clock++
	if e := c.lookup(line); e != nil {
		e.lru = c.clock
		if write {
			e.dirty = true
		}
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// install inserts a line, returning the evicted victim line and whether it
// was dirty. ok=false means no eviction was necessary.
func (c *setAssoc) install(line uint64, write bool) (victim uint64, victimDirty, evicted bool) {
	c.clock++
	set := c.set(line)
	if set == nil {
		set = c.newPage(line)
	}
	// Prefer an invalid way.
	slot := -1
	for w := range set {
		if !set[w].valid {
			slot = w
			break
		}
	}
	if slot < 0 {
		// Evict LRU.
		slot = 0
		for w := 1; w < len(set); w++ {
			if set[w].lru < set[slot].lru {
				slot = w
			}
		}
		victim, victimDirty, evicted = set[slot].tag, set[slot].dirty, true
	}
	set[slot] = saWay{tag: line, lru: c.clock, valid: true, dirty: write}
	return victim, victimDirty, evicted
}

// invalidate removes a line (back-invalidation), reporting whether it was
// present and dirty.
func (c *setAssoc) invalidate(line uint64) (present, dirty bool) {
	if e := c.lookup(line); e != nil {
		e.valid = false
		return true, e.dirty
	}
	return false, false
}

// markDirty sets the dirty bit if present.
func (c *setAssoc) markDirty(line uint64) {
	if e := c.lookup(line); e != nil {
		e.dirty = true
	}
}

// MissRate returns the fraction of accesses that missed.
func (c *setAssoc) MissRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}

// dmEntry is a direct-mapped DRAM-cache slot.
type dmEntry struct {
	tag   uint64
	dirty bool
}

// dramCache is the direct-mapped 4 GB DRAM cache of PMEM's memory mode.
// Only touched sets are materialized.
type dramCache struct {
	setMask uint64
	sets    map[uint64]dmEntry

	Hits   uint64
	Misses uint64
}

func newDRAMCache(sizeBytes uint64) *dramCache {
	sets := sizeBytes / isa.LineSize
	p := uint64(1)
	for p*2 <= sets {
		p *= 2
	}
	return &dramCache{setMask: p - 1, sets: make(map[uint64]dmEntry)}
}

func (d *dramCache) setIndex(line uint64) uint64 { return (line / isa.LineSize) & d.setMask }

// access probes; on hit (write) marks dirty.
func (d *dramCache) access(line uint64, write bool) bool {
	idx := d.setIndex(line)
	e, ok := d.sets[idx]
	if ok && e.tag == line {
		if write && !e.dirty {
			e.dirty = true
			d.sets[idx] = e
		}
		d.Hits++
		return true
	}
	d.Misses++
	return false
}

// install inserts a line, returning the conflicting victim if any.
func (d *dramCache) install(line uint64, write bool) (victim uint64, victimDirty, evicted bool) {
	idx := d.setIndex(line)
	if e, ok := d.sets[idx]; ok && e.tag != line {
		victim, victimDirty, evicted = e.tag, e.dirty, true
	}
	d.sets[idx] = dmEntry{tag: line, dirty: write}
	return victim, victimDirty, evicted
}

func (d *dramCache) markDirty(line uint64) {
	idx := d.setIndex(line)
	if e, ok := d.sets[idx]; ok && e.tag == line {
		e.dirty = true
		d.sets[idx] = e
	}
}

func (d *dramCache) MissRate() float64 {
	t := d.Hits + d.Misses
	if t == 0 {
		return 0
	}
	return float64(d.Misses) / float64(t)
}
