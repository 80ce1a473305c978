package ppa

import (
	"fmt"
	"io"

	"ppa/internal/cache"
	"ppa/internal/inorder"
	"ppa/internal/isa"
	"ppa/internal/multicore"
	"ppa/internal/nvm"
	"ppa/internal/persist"
	"ppa/internal/workload"
)

// Program re-exports the dynamic-trace type for trace I/O users.
type Program = isa.Program

// ExportTrace writes the named application's thread-tid dynamic trace in
// the binary trace format (a 32-byte record per instruction), so traces can
// be archived, diffed, or consumed by external tools.
func ExportTrace(w io.Writer, app string, insts, tid int) error {
	prof, err := workload.ByName(app)
	if err != nil {
		return err
	}
	if insts <= 0 {
		insts = DefaultInsts
	}
	threads := prof.Threads
	if threads < 1 {
		threads = 1
	}
	if tid < 0 || tid >= threads {
		return fmt.Errorf("ppa: %s has threads 0..%d, not %d", app, threads-1, tid)
	}
	return isa.EncodeProgram(w, workload.GenerateThread(prof, insts, tid))
}

// ImportTrace reads a binary trace.
func ImportTrace(r io.Reader) (*Program, error) { return isa.DecodeProgram(r) }

// InOrderResult summarizes a run of the Section 6 in-order core variant.
type InOrderResult struct {
	Cycles  uint64
	Insts   uint64
	IPC     float64
	Regions uint64
	// Slowdown is the persistent run's cycles over the baseline run's.
	Slowdown float64
}

// RunInOrder runs one single-threaded application on the dual-issue
// in-order core, under the baseline and the value-CSQ PPA variant, and
// reports the persistence overhead (Section 6's in-order extension).
func RunInOrder(app string, insts int) (*InOrderResult, error) {
	if insts <= 0 {
		insts = DefaultInsts
	}
	prof, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	prog := workload.GenerateThread(prof, insts, 0)

	run := func(scheme persist.Config) (*inorder.Stats, error) {
		dev := nvm.NewDevice(nvm.DefaultConfig())
		hier := cache.New(cache.DefaultParams(1), dev, workload.WarmResident, workload.L2Resident)
		core, err := inorder.New(inorder.DefaultConfig(scheme), prog, hier)
		if err != nil {
			return nil, err
		}
		limit := multicore.CycleBudget(insts)
		for cyc := uint64(0); !core.Done(); cyc++ {
			if cyc >= limit {
				return nil, fmt.Errorf("ppa: in-order run exceeded %d cycles", limit)
			}
			if err := hier.Tick(cyc); err != nil {
				return nil, err
			}
			core.Step(cyc)
		}
		return core.Stats(), nil
	}

	base, err := run(persist.BaselineDefault())
	if err != nil {
		return nil, err
	}
	st, err := run(inorder.PPAScheme())
	if err != nil {
		return nil, err
	}
	return &InOrderResult{
		Cycles:   st.Cycles,
		Insts:    st.Insts,
		IPC:      st.IPC(),
		Regions:  st.Regions,
		Slowdown: float64(st.Cycles) / float64(base.Cycles),
	}, nil
}
