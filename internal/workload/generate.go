package workload

import (
	"fmt"

	"ppa/internal/isa"
)

// Workload is a generated multi-threaded trace: one program per hardware
// thread, all derived deterministically from a profile.
type Workload struct {
	Profile Profile
	// Threads holds one dynamic trace per hardware thread. Write sets are
	// disjoint across threads (the paper assumes data-race-free programs,
	// Section 6); reads may touch a shared read-mostly region.
	Threads []*isa.Program
}

// TotalInsts returns the dynamic instruction count across all threads.
func (w *Workload) TotalInsts() int {
	n := 0
	for _, t := range w.Threads {
		n += t.Len()
	}
	return n
}

// New generates a workload with instsPerThread dynamic instructions per
// thread. Single-threaded profiles produce exactly one program.
func New(p Profile, instsPerThread int) (*Workload, error) {
	if err := check(p, instsPerThread); err != nil {
		return nil, err
	}
	threads := p.Threads
	if threads <= 1 {
		threads = 1
	}
	w := &Workload{Profile: p, Threads: make([]*isa.Program, threads)}
	for t := 0; t < threads; t++ {
		w.Threads[t] = generateThread(p, instsPerThread, t)
	}
	return w, nil
}

// check rejects an invalid profile or a non-positive instruction count.
func check(p Profile, n int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("workload %s: non-positive instruction count %d", p.Name, n)
	}
	return nil
}

// Address-space layout per thread. Threads are spaced far apart so their
// write sets never share a cache line (DRF requirement), while a common
// read-only region provides cross-thread read sharing.
const (
	threadSpacing = uint64(1) << 36 // 64 GB between thread heaps
	// Region offsets are deliberately not multiples of large powers of two
	// (beyond page alignment): perfectly aligned per-thread heaps would
	// collide in the same cache sets across all threads, a pathology real
	// allocators avoid. heapSkew staggers the threads further.
	hotRegionOff    = uint64(0)
	kernelRegionOff = uint64(8)<<20 + 173*64   // ~8 MB into the heap
	stackRegionOff  = uint64(16)<<20 + 37*64   // ~16 MB into the heap
	warmRegionOff   = uint64(1)<<30 + 911*64   // ~1 GB into the heap
	streamRegionOf  = uint64(8)<<30 + 12289*64 // ~8 GB into the heap
	heapSkew        = uint64(786496)           // 12289 lines between thread bases
	sharedROBase    = uint64(0xF) << 40
	sharedROBytes   = uint64(64) * MB
)

// GenerateThread produces the dynamic trace of one thread deterministically
// from the profile seed and the thread id. It rejects what New rejects,
// and a thread the profile does not have.
func GenerateThread(p Profile, n int, tid int) (*isa.Program, error) {
	if err := check(p, n); err != nil {
		return nil, err
	}
	if threads := max(p.Threads, 1); tid < 0 || tid >= threads {
		return nil, fmt.Errorf("workload %s has threads 0..%d, not %d", p.Name, threads-1, tid)
	}
	return generateThread(p, n, tid), nil
}

func generateThread(p Profile, n int, tid int) *isa.Program {
	g := &generator{
		p:        p,
		rng:      newStream(p.Seed*7919 + int64(tid)*104729 + 13),
		heapBase: uint64(tid+1)*threadSpacing + uint64(tid)*heapSkew,
		pcBase:   0x400000 + uint64(tid)<<32,
	}
	g.init()
	prog := &isa.Program{Name: p.Name, Insts: make([]isa.Inst, n)}
	for i := range prog.Insts {
		g.next(i, &prog.Insts[i])
	}
	return prog
}

// Draws whose probability or range no profile sets.
var (
	jumpChance     = chanceOf(0.25) // a destination register drawn at random
	sharedROChance = chanceOf(0.15) // a cold read of the shared region
	// A kernel instruction's mix: loads, stores, branches, compares.
	kernelLoad   = chanceOf(0.30)
	kernelStore  = chanceOf(0.38)
	kernelBranch = chanceOf(0.55)
	kernelCmp    = chanceOf(0.8)

	intRegSpan      = intnSpan(isa.NumIntRegs)
	fpRegSpan       = intnSpan(isa.NumFPRegs)
	immSpan         = intnSpan(1 << 12)
	lineWordSpan    = intnSpan(8)
	storeRunSpan    = intnSpan(6)
	coinSpan        = intnSpan(2)
	kernelOffSpan   = int63nSpan(32 * KB)
	sharedROOffSpan = int63nSpan(int64(sharedROBytes))
)

// draws holds the chances and spans a profile fixes, computed once per
// generator from the same expressions the draws compare against.
type draws struct {
	load, loadStore, loadStoreBranch chance
	fp, mul, cmp                     chance
	hot, hotWarm                     chance
	stackStore, storeStream          chance
	storeHot                         chance

	dep                              span // 1 + dep is a source's distance
	hotOff, warmOff, hotStore, stack span // offsets into the regions
	sync, syscall, kernelBurst       span // gaps and burst lengths
}

func newDraws(p *Profile) draws {
	d := draws{
		load:            chanceOf(p.LoadRatio),
		loadStore:       chanceOf(p.LoadRatio + p.StoreRatio),
		loadStoreBranch: chanceOf(p.LoadRatio + p.StoreRatio + p.BranchRatio),
		fp:              chanceOf(p.FPRatio),
		mul:             chanceOf(p.MulRatio),
		cmp:             chanceOf(p.CmpRatio),
		hot:             chanceOf(p.HotFraction),
		hotWarm:         chanceOf(p.HotFraction + p.WarmFraction),
		stackStore:      chanceOf(p.StackStoreFraction),
		storeStream:     chanceOf(p.StoreStreamBias),
		storeHot:        chanceOf(p.StoreHotBias),

		dep:         intnSpan(2 * p.DepDistance),
		hotOff:      int63nSpan(int64(maxU64(p.HotBytes, 512))),
		warmOff:     int63nSpan(int64(maxU64(p.WarmBytes, 4096))),
		hotStore:    int63nSpan(int64(hotStoreBytes(p))),
		stack:       int63nSpan(int64(max(p.StackBytes, isa.LineSize))),
		kernelBurst: intnSpan(maxInt(p.KernelBurstLen, 2)),
	}
	if p.SyncEvery > 0 {
		d.sync = intnSpan(p.SyncEvery)
	}
	if p.SyscallEvery > 0 {
		d.syscall = intnSpan(p.SyscallEvery)
	}
	return d
}

// generator holds the evolving state of one thread's trace synthesis.
type generator struct {
	p        Profile
	d        draws
	rng      *stream
	heapBase uint64
	pcBase   uint64

	// recentInt/recentFP are rings of recently defined architectural
	// registers, used to draw dependencies with the profile's DepDistance.
	recentInt ring
	recentFP  ring

	// streamPtr walks the cold region line by line (loads); storeStreamPtr
	// walks a disjoint half word by word so streaming writes fill whole
	// lines (8 consecutive stores per line, like memset/stencil output).
	streamPtr      uint64
	streamLimit    uint64
	storeStreamPtr uint64
	storeStreamLim uint64

	// nextSync is the instruction index of the next synchronization
	// primitive (multi-threaded profiles only).
	nextSync int

	// Kernel-mode state: while kernelLeft > 0, instructions execute the
	// current syscall handler against the kernel region.
	nextSyscall int
	kernelLeft  int

	// Store-run clustering: real stores update several fields of one
	// object/line before moving on, so non-stack stores continue in the
	// current line for a short run.
	curStoreLine uint64
	storeRunLeft int

	// defCounter drives destination register rotation so architectural
	// registers are redefined at a realistic cadence.
	defIntCounter int
	defFPCounter  int
}

// ring is a fixed-capacity ring of recently defined registers.
type ring struct {
	regs [32]isa.Reg
	n    int // valid entries
	pos  int // next write slot
}

func (r *ring) push(reg isa.Reg) {
	r.regs[r.pos] = reg
	r.pos = (r.pos + 1) % len(r.regs)
	if r.n < len(r.regs) {
		r.n++
	}
}

// pick returns a register defined approximately DepDistance definitions
// ago, clamped to what the ring holds; dep is the span of 2*DepDistance.
// The ring is never empty: init seeds it.
func (r *ring) pick(rng *stream, dep *span) isa.Reg {
	d := min(1+int(rng.draw(dep)), r.n)
	return r.regs[(r.pos-d)&(len(r.regs)-1)]
}

func (g *generator) init() {
	g.d = newDraws(&g.p)
	// Seed the rings so the first instructions have sources.
	for i := 0; i < 8; i++ {
		g.recentInt.push(isa.Int(i))
	}
	for i := 0; i < 8; i++ {
		g.recentFP.push(isa.FP(i))
	}
	g.streamPtr = g.heapBase + streamRegionOf
	limit := g.p.FootprintBytes
	if g.p.Threads > 1 {
		limit /= uint64(g.p.Threads)
	}
	if limit < MB {
		limit = MB
	}
	half := limit / 2
	g.streamLimit = g.streamPtr + half
	g.storeStreamPtr = g.streamPtr + half
	g.storeStreamLim = g.storeStreamPtr + half
	g.scheduleSync(0)
	g.scheduleSyscall(0)
}

func (g *generator) scheduleSync(from int) {
	if g.p.SyncEvery <= 0 || g.p.Threads <= 1 {
		g.nextSync = -1
		return
	}
	gap := g.p.SyncEvery/2 + int(g.rng.draw(&g.d.sync))
	if gap < 8 {
		gap = 8
	}
	g.nextSync = from + gap
}

// defInt allocates the next integer destination register, rotating through
// the file with occasional random jumps (accumulator reuse).
func (g *generator) defInt() isa.Reg {
	var r isa.Reg
	if g.rng.hit(jumpChance) {
		r = isa.Int(int(g.rng.draw(&intRegSpan)))
	} else {
		r = isa.Int(g.defIntCounter % isa.NumIntRegs)
		g.defIntCounter++
	}
	g.recentInt.push(r)
	return r
}

func (g *generator) defFP() isa.Reg {
	var r isa.Reg
	if g.rng.hit(jumpChance) {
		r = isa.FP(int(g.rng.draw(&fpRegSpan)))
	} else {
		r = isa.FP(g.defFPCounter % isa.NumFPRegs)
		g.defFPCounter++
	}
	g.recentFP.push(r)
	return r
}

func (g *generator) srcInt() isa.Reg { return g.recentInt.pick(g.rng, &g.d.dep) }
func (g *generator) srcFP() isa.Reg  { return g.recentFP.pick(g.rng, &g.d.dep) }

// address draws one memory address according to the locality mix. The
// isStore flag steers streaming accesses (write-streaming apps bias their
// cold-region traffic toward stores).
func (g *generator) address(isStore bool) uint64 {
	u := g.rng.unit()
	switch {
	case u < g.d.hot:
		off := g.rng.draw(&g.d.hotOff)
		return isa.WordAlign(g.heapBase + hotRegionOff + off)
	case u < g.d.hotWarm:
		off := g.rng.draw(&g.d.warmOff)
		return isa.WordAlign(g.heapBase + warmRegionOff + off)
	default:
		if !isStore && g.rng.hit(sharedROChance) {
			// A slice of cold reads hits the shared read-only region.
			off := g.rng.draw(&sharedROOffSpan)
			return isa.WordAlign(sharedROBase + off)
		}
		// Cold streaming walk: sequential within a line, then advance.
		addr := g.streamPtr
		g.streamPtr += isa.WordSize * 2
		if g.streamPtr >= g.streamLimit {
			g.streamPtr = g.heapBase + streamRegionOf
		}
		return isa.WordAlign(addr)
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (g *generator) scheduleSyscall(from int) {
	if g.p.SyscallEvery <= 0 {
		g.nextSyscall = -1
		return
	}
	gap := g.p.SyscallEvery/2 + int(g.rng.draw(&g.d.syscall))
	if gap < 16 {
		gap = 16
	}
	g.nextSyscall = from + gap
}

// kernelAddr picks a word in the per-thread kernel structures (resident in
// the SRAM caches like any hot OS data).
func (g *generator) kernelAddr() uint64 {
	off := g.rng.draw(&kernelOffSpan)
	return isa.WordAlign(g.heapBase + kernelRegionOff + off)
}

// kernelInst writes into in one kernel-mode instruction of the current
// syscall handler: pointer-heavy loads, a few bookkeeping stores, compares.
func (g *generator) kernelInst(pc uint64, in *isa.Inst) {
	g.kernelLeft--
	switch r := g.rng.unit(); {
	case r < kernelLoad:
		*in = isa.Inst{PC: pc, Op: isa.OpLoad, Dst: g.defInt(), Src1: g.srcInt(), Addr: g.kernelAddr()}
	case r < kernelStore:
		*in = isa.Inst{PC: pc, Op: isa.OpStore, Src1: g.srcInt(), Src2: g.srcInt(), Addr: g.kernelAddr()}
	case r < kernelBranch:
		*in = isa.Inst{PC: pc, Op: isa.OpBranch, Src1: g.srcInt()}
	case r < kernelCmp:
		*in = isa.Inst{PC: pc, Op: isa.OpALU, Src1: g.srcInt(), Src2: g.srcInt(), Imm: 1}
	default:
		*in = isa.Inst{PC: pc, Op: isa.OpALU, Dst: g.defInt(), Src1: g.srcInt(), Src2: g.srcInt(), Imm: 3}
	}
}

// next writes the i-th dynamic instruction into in.
func (g *generator) next(i int, in *isa.Inst) {
	pc := g.pcBase + uint64(i)*4
	if g.kernelLeft > 0 {
		g.kernelInst(pc, in)
		return
	}
	if g.nextSyscall >= 0 && i >= g.nextSyscall {
		// Trap into the kernel: the syscall instruction serializes
		// (Section 5: "system calls rely on trap instructions"; PPA needs
		// no special treatment — the handler is just more instructions).
		g.scheduleSyscall(i)
		g.kernelLeft = g.p.KernelBurstLen/2 + int(g.rng.draw(&g.d.kernelBurst))
		*in = isa.Inst{PC: pc, Op: isa.OpSync, Src1: g.srcInt()}
		return
	}
	if g.nextSync >= 0 && i >= g.nextSync {
		g.scheduleSync(i)
		// Synchronization alternates between an atomic RMW (lock) and a
		// plain sync/barrier event; both are PPA region boundaries.
		if g.rng.draw(&coinSpan) == 0 {
			dst := g.defInt()
			*in = isa.Inst{PC: pc, Op: isa.OpRMW, Dst: dst, Src1: g.srcInt(), Addr: g.address(true)}
			return
		}
		*in = isa.Inst{PC: pc, Op: isa.OpSync, Src1: g.srcInt()}
		return
	}

	u := g.rng.unit()
	switch {
	case u < g.d.load:
		fp := g.rng.hit(g.d.fp)
		addr := g.address(false)
		if fp {
			*in = isa.Inst{PC: pc, Op: isa.OpLoad, Dst: g.defFP(), Src1: g.srcInt(), Addr: addr}
			return
		}
		*in = isa.Inst{PC: pc, Op: isa.OpLoad, Dst: g.defInt(), Src1: g.srcInt(), Addr: addr}

	case u < g.d.loadStore:
		fp := g.rng.hit(g.d.fp)
		addr := g.storeAddr()
		var data isa.Reg
		if fp {
			data = g.srcFP()
		} else {
			data = g.srcInt()
		}
		*in = isa.Inst{PC: pc, Op: isa.OpStore, Src1: data, Src2: g.srcInt(), Addr: addr}

	case u < g.d.loadStoreBranch:
		*in = isa.Inst{PC: pc, Op: isa.OpBranch, Src1: g.srcInt()}

	default:
		fp := g.rng.hit(g.d.fp)
		mul := g.rng.hit(g.d.mul)
		imm := int64(g.rng.draw(&immSpan))
		if g.rng.hit(g.d.cmp) {
			// Flag-setting compare/test: reads registers, defines none.
			if fp {
				*in = isa.Inst{PC: pc, Op: isa.OpFPU, Src1: g.srcFP(), Src2: g.srcFP(), Imm: imm}
				return
			}
			*in = isa.Inst{PC: pc, Op: isa.OpALU, Src1: g.srcInt(), Src2: g.srcInt(), Imm: imm}
			return
		}
		if fp {
			op := isa.OpFPU
			if mul {
				op = isa.OpFPMul
			}
			*in = isa.Inst{PC: pc, Op: op, Dst: g.defFP(), Src1: g.srcFP(), Src2: g.srcFP(), Imm: imm}
			return
		}
		op := isa.OpALU
		if mul {
			op = isa.OpMul
		}
		*in = isa.Inst{PC: pc, Op: op, Dst: g.defInt(), Src1: g.srcInt(), Src2: g.srcInt(), Imm: imm}
	}
}

// coldStoreAddr advances the store-streaming pointer one word at a time so
// consecutive streaming stores fill whole cache lines.
func (g *generator) coldStoreAddr() uint64 {
	addr := g.storeStreamPtr
	g.storeStreamPtr += isa.WordSize
	if g.storeStreamPtr >= g.storeStreamLim {
		g.storeStreamPtr = g.storeStreamLim - (g.storeStreamLim-g.heapBase-streamRegionOf)/2
	}
	return isa.WordAlign(addr)
}

// hotStoreAddr picks a word in the small written working set at the base
// of the hot pool.
func (g *generator) hotStoreAddr() uint64 {
	off := g.rng.draw(&g.d.hotStore)
	return isa.WordAlign(g.heapBase + hotRegionOff + off)
}

// hotStoreBytes sizes the written working set: StoreHotBytes (2 KB if
// unset), at most the hot pool.
func hotStoreBytes(p *Profile) uint64 {
	size := p.StoreHotBytes
	if size == 0 {
		size = 2 * KB
	}
	return min(size, maxU64(p.HotBytes, 512))
}

// storeAddr draws a store address: stack traffic, streaming output, or
// object updates clustered in short same-line runs.
func (g *generator) storeAddr() uint64 {
	switch {
	case g.rng.hit(g.d.stackStore):
		return g.stackAddr()
	case g.p.StoreStreamBias > 0 && g.rng.hit(g.d.storeStream):
		return g.coldStoreAddr()
	}
	if g.storeRunLeft > 0 {
		g.storeRunLeft--
		return g.curStoreLine + g.rng.draw(&lineWordSpan)*isa.WordSize
	}
	var a uint64
	if g.p.StoreHotBias > 0 && g.rng.hit(g.d.storeHot) {
		a = g.hotStoreAddr()
	} else {
		a = g.address(true)
		if a < sharedROBase && a%threadSpacing >= streamRegionOf {
			// The locality mix landed in the cold region: streaming
			// stores fill lines sequentially instead.
			return g.coldStoreAddr()
		}
	}
	g.curStoreLine = isa.LineAlign(a)
	g.storeRunLeft = 2 + int(g.rng.draw(&storeRunSpan))
	return isa.WordAlign(a)
}

// stackAddr picks a word in the tiny stack-like region (at least a line).
func (g *generator) stackAddr() uint64 {
	off := g.rng.draw(&g.d.stack)
	return isa.WordAlign(g.heapBase + stackRegionOff + off)
}
