package ppa

import (
	"io"

	"ppa/internal/inorder"
	"ppa/internal/isa"
	"ppa/internal/multicore"
	"ppa/internal/persist"
	"ppa/internal/pipeline"
	"ppa/internal/workload"
)

// ExportTrace writes the named application's thread-tid dynamic trace in
// the binary trace format (a 32-byte record per instruction), so traces can
// be archived, diffed, or consumed by external tools.
func ExportTrace(w io.Writer, app string, insts, tid int) error {
	prof, _, insts, err := RunConfig{App: app, InstsPerThread: insts}.resolve()
	if err != nil {
		return err
	}
	prog, err := workload.GenerateThread(prof, insts, tid)
	if err != nil {
		return err
	}
	return isa.EncodeProgram(w, prog)
}

// InOrderResult summarizes a run of the Section 6 in-order core variant.
type InOrderResult struct {
	Cycles  uint64
	Insts   uint64
	IPC     float64
	Regions uint64
	// Slowdown is the persistent run's cycles over the baseline run's.
	Slowdown float64
}

// RunInOrder runs thread 0 of an application on the dual-issue in-order
// core, under the baseline and the value-CSQ PPA variant, and reports the
// persistence overhead (Section 6's in-order extension). A multi-threaded
// application runs its thread 0 alone.
func RunInOrder(app string, insts int) (*InOrderResult, error) {
	rc := RunConfig{App: app, InstsPerThread: insts, Customize: inOrderCore}
	prof, _, insts, err := rc.resolve()
	if err != nil {
		return nil, err
	}
	prog, err := workload.GenerateThread(prof, insts, 0)
	if err != nil {
		return nil, err
	}
	w := &workload.Workload{Profile: prof, Threads: []*isa.Program{prog}}
	var st [2]*pipeline.Stats // baseline, PPA
	for i, scheme := range []persist.Config{persist.BaselineDefault(), inorder.PPAScheme()} {
		rc.SchemeOverride = &scheme
		res, err := run(rc, w)
		if err != nil {
			return nil, err
		}
		st[i] = res.PerCore[0]
	}
	return &InOrderResult{
		Cycles:   st[1].Cycles,
		Insts:    st[1].Insts,
		IPC:      st[1].IPC(),
		Regions:  st[1].Regions,
		Slowdown: float64(st[1].Cycles) / float64(st[0].Cycles),
	}, nil
}

// inOrderCore selects RunInOrder's machine: dual-issue in-order cores.
func inOrderCore(c *multicore.Config) {
	c.InOrder = true
	c.Pipeline.Width = 2
}
