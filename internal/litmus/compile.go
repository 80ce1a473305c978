package litmus

import (
	"fmt"

	"ppa/internal/isa"
	"ppa/internal/litmus/px86"
)

// addrBase places litmus slots inside thread 0's hot pool (below the
// per-thread spacing stride and inside the warm-resident window), so the
// cache hierarchy treats them as ordinary resident data.
const addrBase = uint64(1)<<36 + uint64(1)<<20

// Compiled is a litmus test lowered to runnable form: one isa.Program
// per core, the solved axiomatic model, and the per-slot value sets the
// harness's unknown-value check reads.
type Compiled struct {
	Test  *Test
	Addrs []uint64
	Progs []*isa.Program
	Model *px86.Model
	// values[slot] holds every value some core stores to the slot (RMW
	// results included).
	values []map[uint64]bool
}

// SlotAddr maps an address-slot index to its simulated address.
func (t *Test) SlotAddr(slot int) uint64 {
	if t.Layout == LayoutPacked {
		return addrBase + uint64(slot)*8
	}
	return addrBase + uint64(slot)*isa.LineSize
}

// Compile validates the test, assigns auto values, lowers each core to
// an isa.Program, and solves the allowed-outcome model.
//
// Value assignment mirrors the machine's own functional frontend
// (per-core golden execution, no cross-core visibility): a store writes
// its literal value; an RMW writes the core's current view of the word
// plus its addend. Auto values are distinct powers of two indexed by
// global op position, so every observed word names its writer.
func Compile(t *Test) (*Compiled, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{
		Test:   t,
		Addrs:  make([]uint64, t.NAddrs),
		Progs:  make([]*isa.Program, len(t.Cores)),
		values: make([]map[uint64]bool, t.NAddrs),
	}
	for i := range c.Addrs {
		c.Addrs[i] = t.SlotAddr(i)
		c.values[i] = make(map[uint64]bool)
	}
	progs := make([]px86.CoreProg, len(t.Cores))
	gi := 0
	for ci, ops := range t.Cores {
		mem := make(map[uint64]uint64) // the core's own functional view
		var insts []isa.Inst
		var cp px86.CoreProg
		pc := uint64(0x1000 * (ci + 1))
		emit := func(in isa.Inst) {
			in.PC = pc
			pc += 4
			insts = append(insts, in)
		}
		for _, op := range ops {
			val := op.Val
			if val == 0 {
				val = uint64(1) << gi
			}
			gi++
			switch op.Kind {
			case OpStore:
				addr := c.Addrs[op.Addr]
				emit(isa.Inst{Op: isa.OpALU, Dst: isa.Int(1), Src1: isa.NoReg, Src2: isa.NoReg, Imm: int64(val)})
				emit(isa.Inst{Op: isa.OpStore, Dst: isa.NoReg, Src1: isa.Int(1), Src2: isa.NoReg, Addr: addr})
				mem[addr] = val
				cp.Stores = append(cp.Stores, px86.Store{Addr: addr, Val: val})
				c.values[op.Addr][val] = true
			case OpRMW:
				addr := c.Addrs[op.Addr]
				stored := mem[addr] + val
				emit(isa.Inst{Op: isa.OpALU, Dst: isa.Int(1), Src1: isa.NoReg, Src2: isa.NoReg, Imm: int64(val)})
				emit(isa.Inst{Op: isa.OpRMW, Dst: isa.Int(2), Src1: isa.Int(1), Src2: isa.NoReg, Addr: addr})
				mem[addr] = stored
				// The RMW's sync boundary drains prior stores before its
				// own store enters the persist path: barrier, then store.
				cp.Barriers = append(cp.Barriers, len(cp.Stores))
				cp.Stores = append(cp.Stores, px86.Store{Addr: addr, Val: stored})
				c.values[op.Addr][stored] = true
			case OpFence:
				emit(isa.Inst{Op: isa.OpFence, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg})
				cp.Barriers = append(cp.Barriers, len(cp.Stores))
			case OpSync:
				emit(isa.Inst{Op: isa.OpSync, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg})
				cp.Barriers = append(cp.Barriers, len(cp.Stores))
			}
		}
		c.Progs[ci] = &isa.Program{Name: fmt.Sprintf("%s-p%d", t.Name, ci), Insts: insts}
		progs[ci] = cp
	}
	m, err := px86.NewModel(progs, c.Addrs)
	if err != nil {
		return nil, fmt.Errorf("litmus %s: %v", t.Name, err)
	}
	c.Model = m
	return c, nil
}
