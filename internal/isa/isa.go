// Package isa defines the micro-ISA the simulator executes.
//
// The ISA is a small RISC-like instruction set with enough structure to
// exercise everything PPA cares about: register definitions (which consume
// physical registers at rename), stores (whose data registers must be
// preserved for replay), loads (whose latency creates ILP pressure),
// branches, and synchronization primitives (which act as region boundaries
// on multi-core runs). Architectural state follows the paper's assumption
// of 16 integer and 32 floating-point registers (Section 7.13).
package isa

import "fmt"

// Architectural register file sizes (Section 7.13 of the paper).
const (
	NumIntRegs = 16
	NumFPRegs  = 32
)

// RegClass identifies which register file an architectural register lives in.
type RegClass uint8

const (
	// ClassNone marks the absence of a register operand.
	ClassNone RegClass = iota
	// ClassInt is the integer register file (r0..r15).
	ClassInt
	// ClassFP is the floating-point register file (f0..f31).
	ClassFP
)

func (c RegClass) String() string {
	switch c {
	case ClassInt:
		return "int"
	case ClassFP:
		return "fp"
	default:
		return "none"
	}
}

// Reg names an architectural register: a class plus an index within the
// class's file. The zero value is "no register".
type Reg struct {
	Class RegClass
	Index uint8
}

// NoReg is the absent register operand.
var NoReg = Reg{}

// Valid reports whether r names an actual architectural register.
func (r Reg) Valid() bool { return r.Class != ClassNone }

// Int returns the integer register ri.
func Int(i int) Reg { return Reg{Class: ClassInt, Index: uint8(i)} }

// FP returns the floating-point register fi.
func FP(i int) Reg { return Reg{Class: ClassFP, Index: uint8(i)} }

func (r Reg) String() string {
	switch r.Class {
	case ClassInt:
		return fmt.Sprintf("r%d", r.Index)
	case ClassFP:
		return fmt.Sprintf("f%d", r.Index)
	default:
		return "-"
	}
}

// Op is an instruction opcode.
type Op uint8

const (
	// OpNop does nothing.
	OpNop Op = iota
	// OpALU is a single-cycle integer operation: Dst = Src1 + Src2 + Imm.
	OpALU
	// OpMul is a 3-cycle integer multiply: Dst = Src1 * Src2 + Imm.
	OpMul
	// OpFPU is a 4-cycle floating-point add-like operation.
	OpFPU
	// OpFPMul is a 6-cycle floating-point multiply-like operation.
	OpFPMul
	// OpLoad reads 8 bytes: Dst = mem[Addr].
	OpLoad
	// OpStore writes 8 bytes: mem[Addr] = Src1. Src2/Src3 may name address
	// registers (they are read but do not affect the simulated address,
	// which the trace pre-computes).
	OpStore
	// OpBranch is a control-flow instruction; it reads Src1 and defines no
	// register. Mispredictions are modeled statistically by the pipeline.
	OpBranch
	// OpRMW is an atomic read-modify-write: Dst = mem[Addr];
	// mem[Addr] += Src1. It is a synchronization primitive and therefore a
	// region boundary under PPA (Section 6).
	OpRMW
	// OpFence is a memory fence / synchronization primitive; a region
	// boundary under PPA.
	OpFence
	// OpSync models a high-level synchronization point (lock acquire /
	// barrier) in multi-threaded workloads; a region boundary under PPA and
	// a serialization point for every scheme.
	OpSync
)

var opNames = [...]string{
	OpNop:    "nop",
	OpALU:    "alu",
	OpMul:    "mul",
	OpFPU:    "fpu",
	OpFPMul:  "fpmul",
	OpLoad:   "load",
	OpStore:  "store",
	OpBranch: "branch",
	OpRMW:    "rmw",
	OpFence:  "fence",
	OpSync:   "sync",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsStore reports whether the opcode writes memory.
func (o Op) IsStore() bool { return o == OpStore || o == OpRMW }

// IsSyncPrimitive reports whether the opcode is a synchronization primitive
// that PPA treats as a region boundary (Section 6: atomics and fences).
func (o Op) IsSyncPrimitive() bool { return o == OpRMW || o == OpFence || o == OpSync }

// ExecLatency returns the execution latency in cycles for non-memory
// operations. Memory operation latency comes from the cache hierarchy.
func (o Op) ExecLatency() int {
	switch o {
	case OpALU, OpBranch, OpNop:
		return 1
	case OpMul:
		return 3
	case OpFPU:
		return 4
	case OpFPMul:
		return 6
	case OpFence, OpSync:
		return 1
	default:
		return 1
	}
}

// Inst is one dynamic instruction in a trace.
type Inst struct {
	// PC is the program counter of the instruction.
	PC uint64
	// Op is the opcode.
	Op Op
	// Dst is the destination architectural register (NoReg for stores,
	// branches and fences).
	Dst Reg
	// Src1 and Src2 are source operands. For stores, Src1 is the data
	// register whose physical register PPA must preserve (the MaskReg
	// optimization of footnote 10 tracks only this register).
	Src1, Src2 Reg
	// Addr is the pre-computed effective address for memory operations,
	// 8-byte aligned.
	Addr uint64
	// Imm is an immediate operand folded into ALU-style semantics.
	Imm int64
}

// DefinesReg reports whether the instruction allocates a physical register
// at rename.
func (in *Inst) DefinesReg() bool { return in.Dst.Valid() }

func (in *Inst) String() string {
	switch {
	case in.Op == OpStore:
		return fmt.Sprintf("%#x: store %s, [%#x]", in.PC, in.Src1, in.Addr)
	case in.Op == OpLoad:
		return fmt.Sprintf("%#x: load %s, [%#x]", in.PC, in.Dst, in.Addr)
	case in.Op == OpRMW:
		return fmt.Sprintf("%#x: rmw %s, %s, [%#x]", in.PC, in.Dst, in.Src1, in.Addr)
	case in.Dst.Valid():
		return fmt.Sprintf("%#x: %s %s, %s, %s, %d", in.PC, in.Op, in.Dst, in.Src1, in.Src2, in.Imm)
	default:
		return fmt.Sprintf("%#x: %s %s", in.PC, in.Op, in.Src1)
	}
}

// Program is a finite dynamic instruction trace for one hardware thread.
type Program struct {
	// Name identifies the workload that generated the trace.
	Name string
	// Insts is the dynamic instruction sequence in program order.
	Insts []Inst
}

// Len returns the number of dynamic instructions.
func (p *Program) Len() int { return len(p.Insts) }

// Stores counts store-class instructions (OpStore and OpRMW).
func (p *Program) Stores() int {
	n := 0
	for i := range p.Insts {
		if p.Insts[i].Op.IsStore() {
			n++
		}
	}
	return n
}

// WordAlign rounds an address down to the simulator's 8-byte word
// granularity; all memory state is tracked at word granularity.
func WordAlign(addr uint64) uint64 { return addr &^ 7 }

// LineAlign rounds an address down to a 64-byte cache line boundary.
func LineAlign(addr uint64) uint64 { return addr &^ 63 }

// LineSize is the cache line size in bytes used throughout the simulator
// (Table 2: 64B blocks everywhere).
const LineSize = 64

// WordSize is the memory word granularity in bytes.
const WordSize = 8
