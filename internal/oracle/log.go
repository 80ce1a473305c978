package oracle

// Log-stream checking for the log-based transaction schemes (UndoLog,
// RedoTxn, HTPM). The oracle attaches to the device's log-append observer
// (nvm.AddLogObserver) the same way it attaches to the WPQ accept stream,
// and checks every durable log record against the golden model at the
// moment it becomes durable:
//
//   - Undo pre-images are checked at append: commitStore logs the pre-image
//     before the commit event reaches the oracle, so the golden memory still
//     holds the word's pre-store value — exactly what the record must carry.
//
//   - Redo values fold into a per-core pending map (last write wins) and are
//     checked at the region-commit marker, when the golden model has
//     committed the whole region: every folded word must match the golden
//     memory, or replay would reconstruct a state no committed prefix ever
//     produced.
//
//   - Markers are checked against the oracle's own committed-instruction
//     count: the marker's recovery point must be the prefix the oracle has
//     verified, or recovery would resume at the wrong instruction.
//
// CheckRecoveredAt is the transaction-scheme counterpart of CheckRecovered:
// the recovered image must equal the golden memory at each core's own
// recovery point (its last marker), which generally trails the committed
// prefix at the crash.

import (
	"fmt"

	"ppa/internal/isa"
	"ppa/internal/nvm"
)

// ObserveLogAppend is the device log observer: cross-check one durable log
// record against the golden model. undo selects the pre-image discipline;
// otherwise records are redo values.
func (m *Machine) ObserveLogAppend(core int, rec nvm.LogRecord, undo bool) {
	if m.failed() {
		return
	}
	if core < 0 || core >= len(m.cores) {
		m.viol = &PersistViolation{
			Kind: "log-core-mismatch", Core: core,
			Got: uint64(core), Want: uint64(len(m.cores)),
			Detail: "log append from a core the oracle does not model",
		}
		return
	}
	cm := m.cores[core]
	if rec.Marker {
		if rec.Committed != cm.next {
			m.viol = &PersistViolation{
				Kind: "log-marker-mismatch", Core: core,
				Got: uint64(rec.Committed), Want: uint64(cm.next),
				Detail: fmt.Sprintf("region-commit marker records %d committed instructions, oracle has checked %d",
					rec.Committed, cm.next),
			}
			return
		}
		if !undo {
			m.checkRedoRegion(core)
		}
		return
	}
	if undo {
		// commitStore logs the pre-image before the store's commit event
		// reaches the oracle, so the golden memory still holds the
		// pre-store value.
		if want := cm.mem.ReadWord(rec.Addr); rec.Val != want {
			m.viol = &PersistViolation{
				Kind: "log-preimage-mismatch", Core: core, Addr: rec.Addr,
				Got: rec.Val, Want: want,
				Detail: fmt.Sprintf("undo log records pre-image %#x, golden memory holds %#x", rec.Val, want),
			}
		}
		return
	}
	if m.logPend == nil {
		m.logPend = make([]map[uint64]uint64, len(m.cores))
	}
	if m.logPend[core] == nil {
		m.logPend[core] = make(map[uint64]uint64)
	}
	m.logPend[core][rec.Addr] = rec.Val
}

// checkRedoRegion verifies the region closed by a redo marker: replaying the
// region's folded records must land every word on the golden value.
func (m *Machine) checkRedoRegion(core int) {
	if m.logPend == nil {
		return
	}
	pend := m.logPend[core]
	if addr, got, want, bad := firstMismatch(pend, m.cores[core].mem.ReadWord); bad {
		m.viol = &PersistViolation{
			Kind: "log-redo-mismatch", Core: core, Addr: addr, Got: got, Want: want,
			Detail: fmt.Sprintf("redo log would replay %#x, oracle's committed region wrote %#x", got, want),
		}
	}
	clear(pend)
}

// CheckRecoveredAt asserts the transaction-scheme recovery contract: the
// recovered image equals the golden memory at each core's own recovery
// point (points[i] committed instructions — its last region-commit marker),
// which may trail the committed prefix the oracle tracked to the crash.
// cycle is the machine's clock at the crash, which stamps a violation.
func (m *Machine) CheckRecoveredAt(img WordReader, points []int, cycle uint64) error {
	if err := m.Err(); err != nil {
		return err
	}
	for core, cm := range m.cores {
		point := 0
		if points != nil {
			point = points[core]
		}
		if point > cm.next {
			return m.latch(&PersistViolation{
				Kind: "recovered-count-mismatch", Core: core, Cycle: cycle,
				Got: uint64(point), Want: uint64(cm.next),
				Detail: fmt.Sprintf("recovery point %d is beyond the %d instructions the oracle checked", point, cm.next),
			})
		}
		if addr, want, got, bad := lowestMismatch(cm.recoveryGolden(point), img.ReadWord); bad {
			return m.latch(&PersistViolation{
				Kind: "recovered-image-mismatch", Core: core, Cycle: cycle, Addr: addr, Got: got, Want: want,
				Detail: fmt.Sprintf("recovered NVM holds %#x, golden memory at recovery point %d holds %#x", got, point, want),
			})
		}
	}
	return nil
}

// recoveryGolden returns the golden memory after the first point
// instructions of cm's program; the live model has advanced past it. It is
// the oracle's own golden execution, kept from the last check and advanced
// to point, or rerun from the start when point lies behind it or cm now
// runs another program. A caller's golden execution is never borrowed, so
// the check stays independent of the crash driver's.
func (cm *coreModel) recoveryGolden(point int) *isa.MapMemory {
	g := &cm.rec
	if g.Mem == nil {
		g.Mem = isa.NewMapMemory()
	}
	if g.Executed > point || cm.recProg != cm.prog {
		g.Mem.Reset()
		*g = isa.GoldenResult{Mem: g.Mem, StoreLog: g.StoreLog[:0]}
		cm.recProg = cm.prog
	}
	for g.Executed < point {
		isa.StepGolden(g, &cm.prog.Insts[g.Executed], g.Executed)
	}
	return g.Mem
}
