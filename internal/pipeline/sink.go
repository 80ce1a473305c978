package pipeline

import (
	"ppa/internal/isa"
	"ppa/internal/rename"
)

// CommitEvent describes the architectural effects of one committed
// instruction, observed at the commit stage: the retired destination value
// as the PRF holds it, the committed-map (CRT) read-through after the
// commit, the store's word-aligned address and data, and the LCPC register
// after the retire. A lockstep oracle (internal/oracle) replays the same
// instruction on an independent ISA-level model and cross-checks every
// field.
type CommitEvent struct {
	Core  int
	Cycle uint64
	// Seq is the dynamic instruction index (program order).
	Seq int
	PC  uint64
	Op  isa.Op

	DstValid bool
	Dst      isa.Reg
	// DstVal is the destination's physical-register value at commit.
	DstVal uint64
	// CRTVal is the committed architectural value read back through the
	// CRT after this commit updated it — a stale CRT tag shows up here.
	CRTVal uint64

	IsStore   bool
	StoreAddr uint64 // word-aligned
	StoreVal  uint64

	// LCPC is the last-committed-PC register after this retire.
	LCPC uint64
}

// CommitSink receives the core's commit stream and its region-barrier
// lifecycle. Barrier events fire only under the write-buffer retire
// policies (persist.RetireAsync, RetireClwb, RetireGated), whose boundary
// waits on a persist snapshot; they bracket one epoch: Arm when the
// boundary snapshots its persist horizon, Complete when it releases.
//
// The sink is called synchronously from the cycle loop; implementations
// must not retain the *CommitEvent, which is reused across calls.
type CommitSink interface {
	ObserveCommit(ev *CommitEvent)
	ObserveBarrierArm(core int, cycle uint64)
	ObserveBarrierComplete(core int, cycle uint64, cause BoundaryCause)
}

// SetCommitSink attaches a commit observer. A nil sink (the default)
// disables the commit stream at one nil-check per retire.
func (c *Core) SetCommitSink(s CommitSink) { c.sink = s }

// emitCommit fills the reusable event from the retiring ROB entry and hands
// it to the sink. Called with c.sink non-nil, after the rename commit and
// LCPC update, before the ROB slot is recycled.
func (c *Core) emitCommit(e *robEntry, cycle uint64) {
	ev := &c.sinkEv
	ev.Core = c.cfg.CoreID
	ev.Cycle = cycle
	ev.Seq = e.idx
	ev.PC = e.pc
	ev.Op = e.op
	ev.DstValid = e.dst.Valid()
	ev.Dst = e.dst
	if ev.DstValid {
		ev.DstVal = c.ren.Read(e.phys)
		ev.CRTVal = c.ren.CommittedArchValue(e.dst)
	} else {
		ev.DstVal, ev.CRTVal = 0, 0
	}
	ev.IsStore = e.op.IsStore()
	if ev.IsStore {
		ev.StoreAddr = isa.WordAlign(e.addr)
		ev.StoreVal = e.storeVal
	} else {
		ev.StoreAddr, ev.StoreVal = 0, 0
	}
	ev.LCPC = c.lcpc
	c.sink.ObserveCommit(ev)
}

// InFlightPhys appends the destination physical registers held by in-flight
// (renamed, not yet committed) instructions to dst and returns it. Together
// with the renamer's free list, CRT targets, and deferred list these must
// partition the physical register file exactly — rename.CheckPartition
// asserts it.
func (c *Core) InFlightPhys(dst []rename.PhysRef) []rename.PhysRef {
	for i, idx := 0, c.robHead; i < c.robLen; i++ {
		if p := c.rob[idx].phys; p.Valid() {
			dst = append(dst, p)
		}
		if idx++; idx == len(c.rob) {
			idx = 0
		}
	}
	return dst
}

// CheckRenamePartition asserts the PRF ownership partition over the live
// machine: free ⊎ CRT ⊎ deferred ⊎ in-flight covers every physical
// register exactly once.
func (c *Core) CheckRenamePartition() error {
	return c.ren.CheckPartition(c.InFlightPhys(nil))
}
