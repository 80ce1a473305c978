// Package inorder implements the Section 6 extension: PPA for in-order
// cores. An in-order pipeline has no register renaming, so there is no
// physical register file to preserve store operands in — instead the CSQ
// carries data values directly ("accommodating data values rather than
// indexes to PRF ... in the CSQ as usual"), and regions are delineated by
// CSQ capacity and synchronization primitives alone. Across power failure
// the CSQ entries are checkpointed and replayed exactly as on the
// out-of-order core.
//
// The core model is a dual-issue, in-order, blocking-completion pipeline: a
// deliberately simple machine in the spirit of the embedded/energy-
// harvesting cores ReplayCache targeted.
package inorder

import (
	"fmt"

	"ppa/internal/cache"
	"ppa/internal/checkpoint"
	"ppa/internal/isa"
	"ppa/internal/persist"
	"ppa/internal/pipeline"
)

// Config parameterizes the in-order core.
type Config struct {
	CoreID int
	// Width is the issue width (default 2).
	Width int
	// Scheme must retire merge-only or async, with no persist backend.
	Scheme persist.Config
	// SyncBaseCost prices synchronization primitives.
	SyncBaseCost int
	// StartAt resumes at a dynamic instruction index.
	StartAt int
}

// DefaultConfig returns a dual-issue in-order core under the given scheme.
func DefaultConfig(scheme persist.Config) Config {
	return Config{Width: 2, Scheme: scheme, SyncBaseCost: 30}
}

// PPAScheme returns the in-order PPA variant: a value-bearing CSQ with
// asynchronous persistence; regions end at CSQ-full and sync primitives.
func PPAScheme() persist.Config {
	return persist.Config{
		Kind:           persist.PPA,
		Barrier:        persist.BarrierRelaxed,
		CSQEntries:     40,
		ValueCSQ:       true,
		AsyncPersist:   true,
		SyncIsBoundary: true,
	}
}

// Stats aggregates the core's measurements.
type Stats struct {
	Cycles          uint64
	Insts           uint64
	Stores          uint64
	Regions         uint64
	RegionEndStalls uint64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// Core is one in-order hardware thread.
type Core struct {
	cfg  Config
	prog *isa.Program
	hier *cache.Hierarchy

	front *isa.GoldenResult
	next  int

	// Scoreboard: cycle at which each architectural register's value is
	// available to consumers.
	intReady [isa.NumIntRegs]uint64
	fpReady  [isa.NumFPRegs]uint64

	csq   []pipeline.CSQEntry
	lcpc  uint64
	async bool // RetireAsync: stores also enter the write buffer's persist path

	// Boundary wait state.
	epochArmed   bool
	epochSnapSeq int64
	epochCSQMark int

	st   Stats
	done bool
}

// New builds an in-order core over a shared hierarchy.
func New(cfg Config, prog *isa.Program, hier *cache.Hierarchy) (*Core, error) {
	if cfg.Width <= 0 {
		cfg.Width = 2
	}
	sc := cfg.Scheme
	if sc.CSQEntries > 0 && !sc.ValueCSQ {
		return nil, fmt.Errorf("inorder: an in-order core has no PRF; the CSQ must carry values")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	r := sc.Retire()
	syncPersist, eagerFlush := sc.AsyncAblations()
	if (r != persist.RetireMerge && r != persist.RetireAsync) || syncPersist || eagerFlush || sc.NeedsBackend() {
		return nil, fmt.Errorf("inorder: the in-order core does not model scheme %s's store retire or persist backend", sc.Kind)
	}
	front := isa.RunGolden(prog, cfg.StartAt)
	return &Core{cfg: cfg, prog: prog, hier: hier, front: front, next: cfg.StartAt, async: r == persist.RetireAsync}, nil
}

// Done reports whether the trace completed.
func (c *Core) Done() bool { return c.done }

// Stats returns the measurements.
func (c *Core) Stats() *Stats { return &c.st }

// CSQ exposes the live committed store queue.
func (c *Core) CSQ() []pipeline.CSQEntry { return c.csq }

// Committed returns the committed instruction count.
func (c *Core) Committed() int { return c.next }

// Program returns the bound trace.
func (c *Core) Program() *isa.Program { return c.prog }

func (c *Core) ready(r isa.Reg) uint64 {
	switch r.Class {
	case isa.ClassInt:
		return c.intReady[r.Index]
	case isa.ClassFP:
		return c.fpReady[r.Index]
	default:
		return 0
	}
}

func (c *Core) setReady(r isa.Reg, at uint64) {
	switch r.Class {
	case isa.ClassInt:
		c.intReady[r.Index] = at
	case isa.ClassFP:
		c.fpReady[r.Index] = at
	}
}

// Step commits up to Width instructions at the given cycle. In-order,
// non-speculative: an instruction issues when its sources are ready, and
// everything behind it waits.
func (c *Core) Step(cycle uint64) {
	if c.done {
		return
	}
	for w := 0; w < c.cfg.Width; w++ {
		if c.next >= c.prog.Len() {
			c.done = true
			break
		}
		in := &c.prog.Insts[c.next]

		// Region boundary before a sync primitive or on a full CSQ.
		sc := &c.cfg.Scheme
		if sc.CSQEntries > 0 {
			needBoundary := (in.Op.IsSyncPrimitive() && sc.SyncIsBoundary && len(c.csq) > 0) ||
				(in.Op.IsStore() && len(c.csq) >= sc.CSQEntries)
			if needBoundary && !c.tryEndRegion(cycle) {
				c.st.RegionEndStalls++
				break
			}
		}

		// Issue when sources are ready; blocking completion. A store also
		// waits for room in the write buffer: it may not retire without its
		// persist enqueued.
		if c.ready(in.Src1) > cycle || c.ready(in.Src2) > cycle ||
			(in.Op.IsStore() && c.hier.WBFull(c.cfg.CoreID)) {
			break
		}

		var complete uint64
		switch {
		case in.Op == isa.OpLoad || in.Op == isa.OpRMW:
			complete = c.hier.Access(c.cfg.CoreID, in.Addr, false, cycle)
		case in.Op.IsStore():
			complete = cycle + 1
		case in.Op == isa.OpSync || in.Op == isa.OpFence:
			complete = cycle + uint64(c.cfg.SyncBaseCost)
		default:
			complete = cycle + uint64(in.Op.ExecLatency())
		}

		// Functional commit through the program-order oracle.
		idx := c.next
		isa.StepGolden(c.front, in, idx)
		if in.DefinesReg() {
			c.setReady(in.Dst, complete)
		}
		if in.Op.IsStore() {
			val := c.front.StoreLog[len(c.front.StoreLog)-1].Val
			c.hier.StoreData(in.Addr, val)
			c.hier.Access(c.cfg.CoreID, in.Addr, true, cycle)
			if c.async {
				c.hier.PersistStore(c.cfg.CoreID, in.Addr, val, cycle)
			}
			if sc.CSQEntries > 0 {
				c.csq = append(c.csq, pipeline.CSQEntry{
					Addr:         isa.WordAlign(in.Addr),
					Val:          val,
					Seq:          idx,
					ValueBearing: true,
				})
			}
			c.st.Stores++
		}
		c.lcpc = in.PC
		c.next++
		c.st.Insts++

		// Long-latency instructions block the in-order pipeline: stop
		// issuing more this cycle if this one has not completed.
		if complete > cycle+1 {
			break
		}
	}
	c.st.Cycles = cycle + 1
	if c.next >= c.prog.Len() {
		c.done = true
	}
}

// tryEndRegion closes the current region once every persist enqueued up to
// the boundary snapshot is durable, then clears the CSQ.
func (c *Core) tryEndRegion(cycle uint64) bool {
	if !c.epochArmed {
		c.epochArmed = true
		c.epochCSQMark = len(c.csq)
		c.epochSnapSeq = c.hier.CurrentPersistSeq(c.cfg.CoreID)
		c.hier.FlushWB(c.cfg.CoreID, cycle)
	}
	if !c.hier.PersistedThrough(c.cfg.CoreID, c.epochSnapSeq) {
		return false
	}
	c.csq = append(c.csq[:0], c.csq[c.epochCSQMark:]...)
	c.st.Regions++
	c.epochArmed = false
	return true
}

// Checkpoint captures the in-order core's recovery image: the value-bearing
// CSQ, the LCPC, and the commit count. No CRT, MaskReg, or PRF exists.
func (c *Core) Checkpoint() *checkpoint.Image {
	im := &checkpoint.Image{
		CoreID:    c.cfg.CoreID,
		LCPC:      c.lcpc,
		Committed: c.next,
	}
	im.CSQ = append(im.CSQ, c.csq...)
	return im
}
