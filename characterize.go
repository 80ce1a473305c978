package ppa

import (
	"context"
	"fmt"

	"ppa/internal/isa"
	"ppa/internal/sweep"
	"ppa/internal/workload"
)

// Characterization summarizes one application the way Table 3 and the
// workload sections of the paper do: static trace properties plus measured
// memory-system and region behaviour on the Table 2 machine.
type Characterization struct {
	App       string
	Suite     string
	Threads   int
	Footprint uint64 // bytes

	// Instruction mix measured from the generated trace.
	LoadPct   float64
	StorePct  float64
	BranchPct float64
	SyncPct   float64

	// Memory system, measured on the memory-mode baseline.
	IPC               float64
	L2MissRate        float64
	DRAMCacheMissRate float64
	NVMReadsPerKInst  float64

	// PPA region behaviour.
	RegionLen      float64
	RegionStores   float64
	RegionStallPct float64
	PPASlowdown    float64
}

// Characterize runs one application under the baseline and PPA and returns
// its characterization. insts <= 0 uses DefaultInsts.
func Characterize(app string, insts int) (*Characterization, error) {
	if insts <= 0 {
		insts = DefaultInsts
	}
	prof, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}

	c := &Characterization{
		App:       prof.Name,
		Suite:     prof.Suite,
		Threads:   maxThreads(prof.Threads),
		Footprint: prof.FootprintBytes,
	}

	// Static mix from thread 0's trace.
	prog, err := workload.GenerateThread(prof, insts, 0)
	if err != nil {
		return nil, err
	}
	var loads, stores, branches, syncs int
	for i := range prog.Insts {
		switch op := prog.Insts[i].Op; {
		case op == isa.OpLoad:
			loads++
		case op.IsStore():
			stores++
		case op == isa.OpBranch:
			branches++
		case op.IsSyncPrimitive():
			syncs++
		}
	}
	n := float64(prog.Len())
	c.LoadPct = 100 * float64(loads) / n
	c.StorePct = 100 * float64(stores) / n
	c.BranchPct = 100 * float64(branches) / n
	c.SyncPct = 100 * float64(syncs) / n

	// Measured behaviour.
	base, err := Run(RunConfig{App: app, Scheme: SchemeBaseline, InstsPerThread: insts})
	if err != nil {
		return nil, fmt.Errorf("characterize %s baseline: %w", app, err)
	}
	res, err := Run(RunConfig{App: app, Scheme: SchemePPA, InstsPerThread: insts})
	if err != nil {
		return nil, fmt.Errorf("characterize %s ppa: %w", app, err)
	}
	c.IPC = base.IPC()
	c.L2MissRate = base.L2MissRate
	c.DRAMCacheMissRate = base.DRAMCacheMissRate
	c.NVMReadsPerKInst = 1000 * float64(base.NVMReads) / float64(base.Insts)
	c.RegionLen = res.AvgRegionLen()
	c.RegionStores = res.AvgRegionStores()
	c.RegionStallPct = res.RegionEndStallFrac() * 100
	c.PPASlowdown = float64(res.Cycles) / float64(base.Cycles)
	return c, nil
}

func maxThreads(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// CharacterizeAll characterizes every application (expensive: two runs per
// app), spreading the applications across the shared worker pool. Results
// stay in Apps() order.
func CharacterizeAll(insts int) ([]*Characterization, error) {
	apps := Apps()
	return sweep.Map(context.Background(), 0, len(apps), func(_ context.Context, i int) (*Characterization, error) {
		return Characterize(apps[i], insts)
	})
}
