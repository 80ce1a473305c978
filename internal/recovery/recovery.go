// Package recovery implements PPA's power-failure recovery protocol
// (Section 4.6): restore the checkpointed structures from NVM, replay the
// committed stores recorded in each core's CSQ (front to rear; stores are
// idempotent, so double-persisting is harmless), rebuild the RAT from the
// restored CRT, and resume each program right after its LCPC. The package
// also provides the crash-consistency verifier used by tests and examples:
// after recovery, NVM must hold the program-order value of every address
// stored by the committed prefix.
package recovery

import (
	"fmt"

	"ppa/internal/checkpoint"
	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/obs"
	"ppa/internal/rename"
)

// Outcome reports what one core's recovery did.
type Outcome struct {
	CoreID        int
	ReplayedWords int
	ResumeIndex   int // dynamic instruction index to resume at
	ResumePC      uint64
}

// Replay applies one core's CSQ to the NVM image: for each entry, the data
// value is read from the restored physical register file (or from the entry
// itself for value-bearing entries) and written to the destination address.
func Replay(dev *nvm.Device, im *checkpoint.Image) (*Outcome, error) {
	return ReplayN(dev, im, -1)
}

// RestoreRenamer resets ren, a renaming engine of the checkpointed
// register-file sizes, and loads the checkpointed CRT, MaskReg, and
// register values into it, with the RAT populated from the CRT (recovery
// steps 1 and 3 of Section 4).
func RestoreRenamer(ren *rename.Renamer, im *checkpoint.Image) error {
	ren.Reset()
	if err := ren.RestoreCRT(im.CRT); err != nil {
		return err
	}
	if err := ren.RestoreMask(isa.ClassInt, im.MaskInt); err != nil {
		return err
	}
	if err := ren.RestoreMask(isa.ClassFP, im.MaskFP); err != nil {
		return err
	}
	for _, r := range im.Regs {
		ren.RestoreValue(r.Phys, r.Val)
	}
	return nil
}

// ResumeIndex derives the dynamic instruction index following the LCPC for
// a trace whose PCs advance by 4 from a base (the layout our workload
// generator emits). A zero LCPC (nothing committed) resumes at StartAt 0.
func ResumeIndex(prog *isa.Program, lcpc uint64) (int, error) {
	if lcpc == 0 {
		return 0, nil
	}
	if prog.Len() == 0 {
		return 0, fmt.Errorf("recovery: empty program")
	}
	base := prog.Insts[0].PC
	if lcpc < base {
		return 0, fmt.Errorf("recovery: LCPC %#x below program base %#x", lcpc, base)
	}
	idx := int((lcpc-base)/4) + 1
	if idx > prog.Len() {
		return 0, fmt.Errorf("recovery: LCPC %#x beyond program end", lcpc)
	}
	return idx, nil
}

// Recover performs the full single-core protocol: validate the image,
// replay the CSQ, and compute the resume point. The caller restores the
// renamer separately if it intends to resume execution. Images decoded by
// LoadImages are already validated; re-validating here protects callers
// holding in-memory captures or hand-built images.
func Recover(dev *nvm.Device, im *checkpoint.Image, prog *isa.Program) (*Outcome, error) {
	if err := im.Validate(); err != nil {
		return nil, classify(err)
	}
	out, err := Replay(dev, im)
	if err != nil {
		return nil, err
	}
	idx, err := ResumeIndex(prog, im.LCPC)
	if err != nil {
		return nil, err
	}
	out.ResumeIndex = idx
	if idx > 0 && idx <= prog.Len() {
		out.ResumePC = prog.Insts[idx-1].PC + 4
	}
	return out, nil
}

// ValidateImage applies recovery's typed error taxonomy to an image without
// replaying it. The log-based transaction schemes (UndoLog, RedoTxn, HTPM)
// still validate the JIT dump — torn or corrupt checkpoints must surface as
// detections — but reconstruct the image from their own persist logs, so the
// checkpointed CSQ (which may hold an uncommitted region's stores) is never
// replayed.
func ValidateImage(im *checkpoint.Image) error {
	if err := im.Validate(); err != nil {
		return classify(err)
	}
	return nil
}

// RecoverObserved runs Recover and traces its phases on the hub: one
// "recovery-replay" instant per core with the replayed word count and
// resume index, stamped at atCycle (the crash cycle — recovery happens
// while the machine clock is stopped). A nil hub just runs Recover.
func RecoverObserved(dev *nvm.Device, im *checkpoint.Image, prog *isa.Program, hub *obs.Hub, atCycle uint64) (*Outcome, error) {
	out, err := Recover(dev, im, prog)
	if err != nil {
		return nil, err
	}
	hub.Tracer().Emit(obs.Event{
		Cycle: atCycle,
		Type:  obs.EvInstant,
		Core:  im.CoreID,
		Name:  "recovery-replay",
		Cat:   "checkpoint",
		Args: [obs.MaxEventArgs]obs.Arg{
			{Key: "resume", Val: int64(out.ResumeIndex)},
			{Key: "words", Val: int64(out.ReplayedWords)},
		},
	})
	return out, nil
}

// CountInconsistencies returns how many addresses of golden, the golden
// execution of a committed prefix (isa.RunGolden), differ from the NVM
// image — used to demonstrate that non-crash-consistent schemes (the
// memory-mode baseline) actually lose data.
func CountInconsistencies(dev *nvm.Device, golden *isa.GoldenResult) int {
	n := 0
	golden.Mem.Range(func(addr, want uint64) bool {
		if dev.Image().ReadWord(addr) != want {
			n++
		}
		return true
	})
	return n
}

// VerifyArchState checks that the recovered committed register state equals
// golden's, the golden in-order execution up to the commit point
// (isa.RunGolden).
func VerifyArchState(ren *rename.Renamer, golden *isa.GoldenResult) error {
	for i := 0; i < isa.NumIntRegs; i++ {
		r := isa.Int(i)
		if got, want := ren.CommittedArchValue(r), golden.Regs.Read(r); got != want {
			return fmt.Errorf("recovered %v = %#x, golden %#x", r, got, want)
		}
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		r := isa.FP(i)
		if got, want := ren.CommittedArchValue(r), golden.Regs.Read(r); got != want {
			return fmt.Errorf("recovered %v = %#x, golden %#x", r, got, want)
		}
	}
	return nil
}
