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
	"math"

	"ppa/internal/cache"
	"ppa/internal/isa"
	"ppa/internal/persist"
	"ppa/internal/pipeline"
	"ppa/internal/rename"
)

// PPAScheme returns the in-order PPA variant: a value-bearing CSQ with
// asynchronous persistence; regions end at CSQ-full and sync primitives.
func PPAScheme() persist.Config {
	sc := persist.PPADefault()
	sc.DynamicRegions, sc.ValueCSQ = false, true
	return sc
}

// Core is one in-order hardware thread. It runs from the out-of-order
// core's pipeline.Config, reading its CoreID, Width, Scheme, SyncBaseCost,
// StartAt and TraceRegions, and reports into a pipeline.Stats.
type Core struct {
	cfg  pipeline.Config
	prog *isa.Program
	hier *cache.Hierarchy

	front *isa.GoldenResult
	next  int

	// ready is the scoreboard: the cycle at which each architectural
	// register's value is available to consumers.
	ready isa.ArchState

	csq   []pipeline.CSQEntry
	lcpc  uint64
	async bool // RetireAsync: stores also enter the write buffer's persist path

	// Boundary wait state; regionFrom is the open region's first
	// instruction.
	epochArmed   bool
	epochArmedAt uint64
	epochSnapSeq int64
	regionFrom   int

	st   pipeline.Stats
	done bool

	// sink receives the commit stream and barrier lifecycle for lockstep
	// checking (nil when no oracle is attached); sinkEv is reused.
	sink   pipeline.CommitSink
	sinkEv pipeline.CommitEvent
}

// New builds an in-order core over a shared hierarchy.
func New(cfg pipeline.Config, prog *isa.Program, hier *cache.Hierarchy) (*Core, error) {
	c := &Core{hier: hier}
	if err := c.Reset(cfg, prog); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset returns the core to the state New builds for cfg and prog over its
// hierarchy, which the caller resets, keeping only the CSQ's storage. A
// commit sink attached since is dropped.
func (c *Core) Reset(cfg pipeline.Config, prog *isa.Program) error {
	sc := cfg.Scheme
	if cfg.Width <= 0 || sc.CSQEntries > 0 && !sc.ValueCSQ {
		return fmt.Errorf("inorder: the core needs a positive width, and a CSQ that carries values: it has no PRF")
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	r := sc.Retire()
	syncPersist, eagerFlush := sc.AsyncAblations()
	if (r != persist.RetireMerge && r != persist.RetireAsync) || syncPersist || eagerFlush || sc.NeedsBackend() {
		return fmt.Errorf("inorder: the in-order core does not model scheme %s's store retire or persist backend", sc.Kind)
	}
	*c = Core{
		cfg:        cfg,
		prog:       prog,
		hier:       c.hier,
		front:      isa.RunGolden(prog, cfg.StartAt),
		next:       cfg.StartAt,
		csq:        c.csq[:0],
		async:      r == persist.RetireAsync,
		regionFrom: cfg.StartAt,
	}
	return nil
}

// CrashCopyFrom makes c, a core of the same index, a copy of src as far as
// a power failure reads it: what checkpoint.Capture dumps (the CSQ, the
// LCPC and the commit count) and what Collect reads (the statistics), with
// src's configuration, program, scoreboard and region state. The
// frontend's golden state, which the outage loses, is not copied: c's
// keeps its own stale contents, so c must not be stepped until a Reset.
// It keeps c's hierarchy, CSQ storage and commit sink, and shares no
// mutable storage with src: every field is src's except those it restores.
func (c *Core) CrashCopyFrom(src *Core) error {
	if src.cfg.CoreID != c.cfg.CoreID {
		return fmt.Errorf("inorder: core %d cannot copy core %d", c.cfg.CoreID, src.cfg.CoreID)
	}
	own := *c
	own.st.CopyFrom(&src.st)
	*c = *src
	c.hier, c.front, c.st, c.sink = own.hier, own.front, own.st, own.sink
	c.csq = append(own.csq[:0], src.csq...)
	return nil
}

// Done reports whether the trace completed.
func (c *Core) Done() bool { return c.done }

// Stats returns the measurements.
func (c *Core) Stats() *pipeline.Stats { return &c.st }

// Renamer returns nil: an in-order core renames nothing, so its checkpoint
// carries no CRT, MaskReg or registers.
func (c *Core) Renamer() *rename.Renamer { return nil }

// CSQ exposes the live committed store queue.
func (c *Core) CSQ() []pipeline.CSQEntry { return c.csq }

// LCPC returns the last committed program counter.
func (c *Core) LCPC() uint64 { return c.lcpc }

// Committed returns the committed instruction count.
func (c *Core) Committed() int { return c.next }

// Program returns the bound trace.
func (c *Core) Program() *isa.Program { return c.prog }

// SetCommitSink attaches a commit observer (nil detaches it).
func (c *Core) SetCommitSink(s pipeline.CommitSink) { c.sink = s }

// Step commits up to Width instructions at the given cycle. In-order,
// non-speculative: an instruction issues when its sources are ready, and
// everything behind it waits.
func (c *Core) Step(cycle uint64) {
	if c.done {
		return
	}
	for w := 0; w < c.cfg.Width; w++ {
		if c.next >= c.prog.Len() {
			break
		}
		in := &c.prog.Insts[c.next]

		// Region boundary before a sync primitive or on a full CSQ.
		sc := &c.cfg.Scheme
		if sc.CSQEntries > 0 {
			sync := in.Op.IsSyncPrimitive() && sc.SyncIsBoundary && len(c.csq) > 0
			cause := pipeline.BoundaryCSQ
			if sync {
				cause = pipeline.BoundarySync
			}
			if (sync || in.Op.IsStore() && len(c.csq) >= sc.CSQEntries) && !c.tryEndRegion(cycle, cause) {
				c.st.RegionEndStalls++
				break
			}
		}

		// Issue when sources are ready; blocking completion. A store also
		// waits for room in the write buffer: it may not retire without its
		// persist enqueued.
		if c.ready.Read(in.Src1) > cycle || c.ready.Read(in.Src2) > cycle {
			break
		}
		if in.Op.IsStore() && c.hier.WBFull(c.cfg.CoreID) {
			c.st.WBFullStalls++
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
		c.ready.Write(in.Dst, complete)
		var val uint64
		if in.Op.IsStore() {
			val = c.front.StoreLog[len(c.front.StoreLog)-1].Val
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
				c.st.CSQMaxDepth = max(c.st.CSQMaxDepth, len(c.csq))
			}
			c.st.Stores++
		}
		c.lcpc = in.PC
		c.next++
		c.st.Insts++
		if c.sink != nil {
			c.emitCommit(in, idx, val, cycle)
		}

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

// NextEvent reports the earliest cycle, no earlier than cycle, at which
// Step may do more than an idle step, which changes nothing but the
// counters ChargeIdle scales, provided no other unit changes before then:
// the next instruction's sources becoming ready, or any boundary or issue
// Step could make now. A core waiting on the hierarchy reports never; the
// hierarchy reports when it changes.
func (c *Core) NextEvent(cycle uint64) uint64 {
	if c.done {
		return math.MaxUint64
	}
	if c.next >= c.prog.Len() {
		return cycle // Step marks the core done
	}
	in := &c.prog.Insts[c.next]
	if sc := &c.cfg.Scheme; sc.CSQEntries > 0 {
		sync := in.Op.IsSyncPrimitive() && sc.SyncIsBoundary && len(c.csq) > 0
		if sync || in.Op.IsStore() && len(c.csq) >= sc.CSQEntries {
			if c.epochArmed && !c.hier.PersistedThrough(c.cfg.CoreID, c.epochSnapSeq) {
				return math.MaxUint64
			}
			return cycle
		}
	}
	if r := max(c.ready.Read(in.Src1), c.ready.Read(in.Src2)); r > cycle {
		return r
	}
	if in.Op.IsStore() && c.hier.WBFull(c.cfg.CoreID) {
		return math.MaxUint64
	}
	return cycle
}

// ChargeIdle accounts k more cycles like the idle step just run, whose
// statistics before it were before. The caller guarantees, through
// NextEvent, that nothing else changes in those cycles.
func (c *Core) ChargeIdle(before *pipeline.Stats, k uint64) {
	if !c.done {
		c.st.ChargeIdle(before, k)
	}
}

// emitCommit hands the sink the architectural effects of instruction idx,
// committed at cycle; val is a store's value.
func (c *Core) emitCommit(in *isa.Inst, idx int, val, cycle uint64) {
	ev := &c.sinkEv
	*ev = pipeline.CommitEvent{
		Core:     c.cfg.CoreID,
		Cycle:    cycle,
		Seq:      idx,
		PC:       in.PC,
		Op:       in.Op,
		DstValid: in.DefinesReg(),
		Dst:      in.Dst,
		IsStore:  in.Op.IsStore(),
		LCPC:     c.lcpc,
	}
	if ev.DstValid {
		ev.DstVal = c.front.Regs.Read(in.Dst)
		ev.CRTVal = ev.DstVal
	}
	if ev.IsStore {
		ev.StoreAddr, ev.StoreVal = isa.WordAlign(in.Addr), val
	}
	c.sink.ObserveCommit(ev)
}

// tryEndRegion closes the current region once every persist enqueued up to
// the boundary snapshot is durable, then clears the CSQ: nothing commits
// while a boundary waits, so the CSQ holds exactly the region's stores.
// Under RetireAsync the sink sees the barrier arm and complete, as on the
// out-of-order core.
func (c *Core) tryEndRegion(cycle uint64, cause pipeline.BoundaryCause) bool {
	if !c.epochArmed {
		c.epochArmed = true
		c.epochArmedAt = cycle
		if c.sink != nil && c.async {
			c.sink.ObserveBarrierArm(c.cfg.CoreID, cycle)
		}
		c.epochSnapSeq = c.hier.CurrentPersistSeq(c.cfg.CoreID)
		c.hier.FlushWB(c.cfg.CoreID, cycle)
	}
	if !c.hier.PersistedThrough(c.cfg.CoreID, c.epochSnapSeq) {
		return false
	}
	c.st.CloseRegion(pipeline.RegionRecord{
		EndCycle:    cycle,
		Cause:       cause,
		Insts:       c.next - c.regionFrom,
		Stores:      len(c.csq),
		StallCycles: cycle - c.epochArmedAt,
	}, c.cfg.TraceRegions)
	c.csq = c.csq[:0]
	c.regionFrom = c.next
	c.epochArmed = false
	if c.sink != nil && c.async {
		c.sink.ObserveBarrierComplete(c.cfg.CoreID, cycle, cause)
	}
	return true
}
