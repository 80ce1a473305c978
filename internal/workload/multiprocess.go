package workload

import (
	"fmt"

	"ppa/internal/isa"
)

// GenerateMultiProcess models Section 5's context-switching discussion: one
// hardware thread time-slices between several processes. Each quantum ends
// with a trap and a scheduler burst in the kernel region, then the next
// process continues where it left off in its own address space. PPA needs
// no special handling — the switch is just more committed instructions
// whose stores the CSQ tracks like any others — which is exactly what the
// crash-consistency tests verify by failing power mid-switch.
//
// The returned trace's PCs are globally monotone (+4 per instruction) so
// the recovery protocol's LCPC arithmetic applies unchanged. Register state
// flows across switches as if the OS saved and restored it; the golden
// executor sees the same single instruction stream the core does, so
// verification semantics are preserved.
func GenerateMultiProcess(profiles []Profile, quantum, totalInsts int, seed int64) (*isa.Program, error) {
	if len(profiles) < 2 {
		return nil, fmt.Errorf("workload: multi-process needs at least two processes")
	}
	if quantum < 32 {
		return nil, fmt.Errorf("workload: quantum %d too small", quantum)
	}
	if totalInsts <= 0 {
		return nil, fmt.Errorf("workload: non-positive instruction count")
	}

	rng := newStream(seed)
	gens := make([]*generator, len(profiles))
	locals := make([]int, len(profiles))
	for pid, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		// Each process gets its own address space (the per-"thread" heap
		// spacing doubles as per-process spacing on one hardware thread).
		g := &generator{
			p:        p,
			rng:      newStream(p.Seed*7919 + int64(pid)*104729 + 13),
			heapBase: uint64(pid+1)*threadSpacing + uint64(pid)*heapSkew,
			pcBase:   0x400000,
		}
		g.init()
		// Process-local sync/syscall scheduling applies within slices.
		gens[pid] = g
	}

	prog := &isa.Program{
		Name:  "multiprocess",
		Insts: make([]isa.Inst, totalInsts),
	}
	quanta := intnSpan(quantum)
	pid, k := 0, 0
	const switchBurst = 60
	for k < totalInsts {
		// One quantum of the current process (with a little jitter, like a
		// timer interrupt would have).
		slice := quantum/2 + int(rng.draw(&quanta))
		for i := 0; i < slice && k < totalInsts; i++ {
			gens[pid].next(locals[pid], &prog.Insts[k])
			locals[pid]++
			k++
		}
		if k >= totalInsts {
			break
		}
		// Timer interrupt: trap, then the scheduler walks run queues and
		// saves/restores contexts in the outgoing process's kernel region.
		g := gens[pid]
		prog.Insts[k] = isa.Inst{Op: isa.OpSync, Src1: isa.Int(0)}
		k++
		for i := 0; i < switchBurst && k < totalInsts; i++ {
			g.kernelLeft = 1 // force one kernel instruction at a time
			g.kernelInst(0, &prog.Insts[k])
			k++
		}
		pid = (pid + 1) % len(profiles)
	}

	// Globally monotone PCs for LCPC/resume arithmetic.
	for i := range prog.Insts {
		prog.Insts[i].PC = 0x400000 + uint64(i)*4
	}
	return prog, nil
}
