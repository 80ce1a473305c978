package isa

import "slices"

// Memory is the functional memory interface used by the golden executor and
// by the cache hierarchy's functional layer. All accesses are 8-byte words
// at 8-byte-aligned addresses.
type Memory interface {
	ReadWord(addr uint64) uint64
	WriteWord(addr uint64, val uint64)
}

// MapMemory is a sparse word-granular memory. The zero value is ready to
// use. Storage is line-granular — one LineWords per touched line, plus a
// one-line cursor — because real traces access memory in same-line runs
// (store clustering, streaming walks): the common case is an array-slot hit
// on the cursor's line instead of a per-word map probe.
type MapMemory struct {
	lines    map[uint64]*LineWords
	words    int // distinct words ever written
	lastBase uint64
	last     *LineWords
	// slab holds the lines of the last CopyFrom, which the next one reuses.
	slab []LineWords
}

// NewMapMemory returns an empty sparse memory.
func NewMapMemory() *MapMemory { return &MapMemory{lines: make(map[uint64]*LineWords)} }

// line returns the LineWords covering addr, or nil if the line was never
// written, moving the cursor on a hit.
func (m *MapMemory) line(base uint64) *LineWords {
	if m.last != nil && m.lastBase == base {
		return m.last
	}
	lw := m.lines[base]
	if lw != nil {
		m.last, m.lastBase = lw, base
	}
	return lw
}

// ReadWord returns the word at addr (zero if never written).
func (m *MapMemory) ReadWord(addr uint64) uint64 {
	lw := m.line(LineAlign(addr))
	if lw == nil {
		return 0
	}
	v, _ := lw.Get(addr)
	return v
}

// WriteWord stores val at addr.
func (m *MapMemory) WriteWord(addr uint64, val uint64) {
	base := LineAlign(addr)
	lw := m.line(base)
	if lw == nil {
		if m.lines == nil {
			m.lines = make(map[uint64]*LineWords)
		}
		lw = &LineWords{}
		m.lines[base] = lw
		m.last, m.lastBase = lw, base
	}
	s := Slot(WordAlign(addr))
	if lw.Mask&(1<<s) == 0 {
		m.words++
	}
	lw.Words[s] = val
	lw.Mask |= 1 << s
}

// Reset empties m, keeping its map storage. The lines m held are dropped,
// not reused, so a line read from m before the reset keeps its words.
func (m *MapMemory) Reset() {
	clear(m.lines)
	*m = MapMemory{lines: m.lines}
}

// Len returns the number of distinct words ever written.
func (m *MapMemory) Len() int { return m.words }

// Snapshot returns a copy of all written words.
func (m *MapMemory) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64, m.words)
	for base, lw := range m.lines {
		lw.Range(base, func(a, v uint64) { out[a] = v })
	}
	return out
}

// Clone returns a deep copy sharing no storage with m — the fast-forward
// engine hands clones to pipeline frontends so their ahead-of-commit writes
// cannot disturb the golden model's own memory.
func (m *MapMemory) Clone() *MapMemory {
	c := &MapMemory{lines: make(map[uint64]*LineWords, len(m.lines))}
	c.CopyFrom(m)
	return c
}

// CopyFrom makes m a deep copy of src, keeping m's map storage and the
// line storage of its last CopyFrom, which it grows when src has more
// lines.
func (m *MapMemory) CopyFrom(src *MapMemory) {
	if m.lines == nil {
		m.lines = make(map[uint64]*LineWords, len(src.lines))
	}
	clear(m.lines)
	m.slab = slices.Grow(m.slab[:0], len(src.lines))[:len(src.lines)]
	i := 0
	for base, lw := range src.lines {
		m.slab[i] = *lw
		m.lines[base] = &m.slab[i]
		i++
	}
	m.words, m.last, m.lastBase = src.words, nil, 0
}

// Range calls fn for every written word until fn returns false.
func (m *MapMemory) Range(fn func(addr, val uint64) bool) {
	for base, lw := range m.lines {
		for s := 0; s < LineWordCount; s++ {
			if lw.Mask&(1<<s) != 0 {
				if !fn(base+uint64(s)*WordSize, lw.Words[s]) {
					return
				}
			}
		}
	}
}

// ArchState is the architectural register state of one hardware thread.
type ArchState struct {
	Int [NumIntRegs]uint64
	FP  [NumFPRegs]uint64
}

// Read returns the value of architectural register r (0 for NoReg).
func (s *ArchState) Read(r Reg) uint64 {
	switch r.Class {
	case ClassInt:
		return s.Int[r.Index]
	case ClassFP:
		return s.FP[r.Index]
	default:
		return 0
	}
}

// Write sets architectural register r to val; writes to NoReg are dropped.
func (s *ArchState) Write(r Reg, val uint64) {
	switch r.Class {
	case ClassInt:
		s.Int[r.Index] = val
	case ClassFP:
		s.FP[r.Index] = val
	}
}

// Eval computes the result value of a non-store instruction given its source
// operand values and, for loads/RMWs, the loaded memory word. The semantics
// are deterministic so that any two executions of the same trace agree on
// every stored value — the property crash-consistency checks rely on.
func Eval(in *Inst, src1, src2, memWord uint64) uint64 {
	switch in.Op {
	case OpALU:
		return src1 + src2 + uint64(in.Imm)
	case OpMul:
		return src1*src2 + uint64(in.Imm)
	case OpFPU:
		// Integer mixing stands in for FP arithmetic; only determinism and
		// register-file pressure matter to the microarchitecture.
		return src1 ^ (src2 + uint64(in.Imm))
	case OpFPMul:
		return (src1+3)*(src2|1) + uint64(in.Imm)
	case OpLoad:
		return memWord
	case OpRMW:
		return memWord // RMW returns the old memory value
	default:
		return 0
	}
}

// StoredValue returns the value a store-class instruction writes to memory,
// given its data-register value and (for RMW) the old memory word.
func StoredValue(in *Inst, data, memWord uint64) uint64 {
	if in.Op == OpRMW {
		return memWord + data
	}
	return data
}

// GoldenResult is the outcome of an in-order functional execution.
type GoldenResult struct {
	// Mem is the memory image after the last executed instruction.
	Mem *MapMemory
	// Regs is the final architectural register state.
	Regs ArchState
	// StoreLog records every store in program order as (addr, value).
	StoreLog []StoreRecord
	// Executed is the number of instructions executed.
	Executed int
}

// StoreRecord is one program-order store.
type StoreRecord struct {
	Seq  int // dynamic instruction index
	Addr uint64
	Val  uint64
}

// RunGolden executes the first n instructions of p in order on a fresh
// memory and register file, returning the resulting state. n < 0 runs the
// whole trace. This is the reference model: a crash-consistent scheme must
// recover NVM to a state where every address stored by the first k committed
// instructions holds its golden value at instruction k.
func RunGolden(p *Program, n int) *GoldenResult {
	res := &GoldenResult{Mem: NewMapMemory()}
	res.Rerun(p, n)
	return res
}

// Rerun makes res what RunGolden(p, n) returns, keeping the storage of its
// memory's map and of its store log. The memory drops its lines (see
// MapMemory.Reset), so a line read from res.Mem before keeps its words.
func (res *GoldenResult) Rerun(p *Program, n int) {
	if n < 0 || n > len(p.Insts) {
		n = len(p.Insts)
	}
	res.Mem.Reset()
	*res = GoldenResult{Mem: res.Mem, StoreLog: res.StoreLog[:0]}
	for i := 0; i < n; i++ {
		in := &p.Insts[i]
		stepGolden(res, in, i)
	}
	res.Executed = n
}

// StepGolden executes one instruction against an existing golden state;
// used by the simulator to maintain the committed-prefix reference image
// incrementally.
func StepGolden(res *GoldenResult, in *Inst, seq int) {
	stepGolden(res, in, seq)
	res.Executed++
}

func stepGolden(res *GoldenResult, in *Inst, seq int) {
	s := &res.Regs
	src1 := s.Read(in.Src1)
	src2 := s.Read(in.Src2)
	switch {
	case in.Op == OpStore:
		addr := WordAlign(in.Addr)
		val := StoredValue(in, src1, 0)
		res.Mem.WriteWord(addr, val)
		res.StoreLog = append(res.StoreLog, StoreRecord{Seq: seq, Addr: addr, Val: val})
	case in.Op == OpRMW:
		addr := WordAlign(in.Addr)
		old := res.Mem.ReadWord(addr)
		val := StoredValue(in, src1, old)
		res.Mem.WriteWord(addr, val)
		res.StoreLog = append(res.StoreLog, StoreRecord{Seq: seq, Addr: addr, Val: val})
		s.Write(in.Dst, Eval(in, src1, src2, old))
	case in.Op == OpLoad:
		word := res.Mem.ReadWord(in.Addr)
		s.Write(in.Dst, Eval(in, src1, src2, word))
	case in.Dst.Valid():
		s.Write(in.Dst, Eval(in, src1, src2, 0))
	}
}
