package cache

import (
	"math/rand"
	"testing"

	"ppa/internal/isa"
)

// flatSetAssoc is the reference tag array: one zeroed slice holding every
// way of every set, allocated up front. setAssoc must behave exactly like
// it while materializing its sets page by page.
type flatSetAssoc struct {
	ways    int
	setMask uint64
	w       []saWay
	clock   uint32

	Hits   uint64
	Misses uint64
}

func newFlatSetAssoc(sizeBytes uint64, ways int) *flatSetAssoc {
	sets := sizeBytes / uint64(isa.LineSize) / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	p := uint64(1)
	for p*2 <= sets {
		p *= 2
	}
	return &flatSetAssoc{ways: ways, setMask: p - 1, w: make([]saWay, int(p)*ways)}
}

func (c *flatSetAssoc) setBase(line uint64) int {
	return int((line/isa.LineSize)&c.setMask) * c.ways
}

func (c *flatSetAssoc) lookup(line uint64) int {
	base := c.setBase(line)
	for w := 0; w < c.ways; w++ {
		if e := &c.w[base+w]; e.valid && e.tag == line {
			return base + w
		}
	}
	return -1
}

func (c *flatSetAssoc) access(line uint64, write bool) bool {
	c.clock++
	if slot := c.lookup(line); slot >= 0 {
		e := &c.w[slot]
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

func (c *flatSetAssoc) install(line uint64, write bool) (victim uint64, victimDirty, evicted bool) {
	c.clock++
	base := c.setBase(line)
	slot := -1
	for w := 0; w < c.ways; w++ {
		if !c.w[base+w].valid {
			slot = base + w
			break
		}
	}
	if slot < 0 {
		slot = base
		for w := 1; w < c.ways; w++ {
			if c.w[base+w].lru < c.w[slot].lru {
				slot = base + w
			}
		}
		victim, victimDirty, evicted = c.w[slot].tag, c.w[slot].dirty, true
	}
	c.w[slot] = saWay{tag: line, lru: c.clock, valid: true, dirty: write}
	return victim, victimDirty, evicted
}

func (c *flatSetAssoc) invalidate(line uint64) (present, dirty bool) {
	if slot := c.lookup(line); slot >= 0 {
		c.w[slot].valid = false
		return true, c.w[slot].dirty
	}
	return false, false
}

func (c *flatSetAssoc) markDirty(line uint64) {
	if slot := c.lookup(line); slot >= 0 {
		c.w[slot].dirty = true
	}
}

func (c *setAssoc) materializedPages() int {
	n := 0
	for _, pg := range c.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestPagedTagArrayMatchesFlat drives the paged tag array and the flat
// reference with the same seeded mix of operations and requires identical
// return values and hit/miss counts after every one, then an identical
// final state, across geometries from a single set to the 16 MiB L2.
func TestPagedTagArrayMatchesFlat(t *testing.T) {
	geometries := []struct {
		name string
		size uint64
		ways int
	}{
		{"one-set", 4 * isa.LineSize, 4},
		{"under-one-page", 4 * 2 * isa.LineSize, 2},
		{"l1d", 64 << 10, 8},
		{"private-l2", 1 << 20, 16},
		{"shared-l2", 16 << 20, 16},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			paged, flat := newSetAssoc(g.size, g.ways), newFlatSetAssoc(g.size, g.ways)
			sets := flat.setMask + 1
			if paged.setMask != flat.setMask || paged.ways != flat.ways {
				t.Fatalf("geometry %d sets x %d ways, reference %d x %d",
					paged.setMask+1, paged.ways, sets, flat.ways)
			}
			rng := rand.New(rand.NewSource(int64(sets)))
			// Most operations land on a few hot sets spread over three
			// pages, so sets fill and evict; the rest scatter over the
			// whole array and touch fresh pages.
			hot := make([]uint64, 6)
			for i := range hot {
				hot[i] = (uint64(i/2)*setsPerPage*7 + uint64(rng.Intn(setsPerPage))) & flat.setMask
			}
			line := func() uint64 {
				set := hot[rng.Intn(len(hot))]
				if rng.Intn(5) == 0 {
					set = uint64(rng.Int63n(int64(sets)))
				}
				tag := uint64(rng.Intn(g.ways + 3))
				return (tag*sets + set) * isa.LineSize
			}

			// Probes of a never-installed array allocate no page.
			for i := 0; i < 200; i++ {
				l := line()
				paged.access(l, i%2 == 0)
				flat.access(l, i%2 == 0)
				paged.invalidate(l)
				paged.markDirty(l)
			}
			if n := paged.materializedPages(); n != 0 {
				t.Fatalf("probes materialized %d pages", n)
			}

			for op := 0; op < 20_000; op++ {
				l, write := line(), rng.Intn(2) == 0
				switch k := rng.Intn(10); {
				case k < 4:
					if got, want := paged.access(l, write), flat.access(l, write); got != want {
						t.Fatalf("op %d access(%#x): hit %v, reference %v", op, l, got, want)
					}
				case k < 7:
					gv, gd, ge := paged.install(l, write)
					wv, wd, we := flat.install(l, write)
					if gv != wv || gd != wd || ge != we {
						t.Fatalf("op %d install(%#x): victim %#x dirty %v evicted %v, reference %#x %v %v",
							op, l, gv, gd, ge, wv, wd, we)
					}
				case k < 9:
					gp, gd := paged.invalidate(l)
					wp, wd := flat.invalidate(l)
					if gp != wp || gd != wd {
						t.Fatalf("op %d invalidate(%#x): present %v dirty %v, reference %v %v",
							op, l, gp, gd, wp, wd)
					}
				default:
					paged.markDirty(l)
					flat.markDirty(l)
				}
				if paged.Hits != flat.Hits || paged.Misses != flat.Misses {
					t.Fatalf("op %d: hits/misses %d/%d, reference %d/%d",
						op, paged.Hits, paged.Misses, flat.Hits, flat.Misses)
				}
			}

			// Way for way, a set on a missing page is a zeroed flat set.
			for set := uint64(0); set < sets; set++ {
				got := paged.set(set * isa.LineSize)
				for w, want := range flat.w[int(set)*g.ways : int(set+1)*g.ways] {
					if got == nil && want != (saWay{}) || got != nil && got[w] != want {
						t.Fatalf("set %d way %d: %+v, reference %+v", set, w, got, want)
					}
				}
			}
			t.Logf("%d of %d pages materialized", paged.materializedPages(), len(paged.pages))
		})
	}
}
