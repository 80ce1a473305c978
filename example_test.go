package ppa_test

import (
	"fmt"

	"ppa"
)

// The overhead question: what does whole-system persistence cost?
func Example_overhead() {
	base, err := ppa.Run(ppa.RunConfig{App: "sjeng", Scheme: ppa.SchemeBaseline, InstsPerThread: 10_000})
	if err != nil {
		panic(err)
	}
	res, err := ppa.Run(ppa.RunConfig{App: "sjeng", Scheme: ppa.SchemePPA, InstsPerThread: 10_000})
	if err != nil {
		panic(err)
	}
	overhead := (float64(res.Cycles)/float64(base.Cycles) - 1) * 100
	fmt.Printf("PPA is persistent at under 3%% overhead: %v\n", overhead < 3)
	// Output: PPA is persistent at under 3% overhead: true
}

// The durability question: does a crash lose committed stores?
func Example_crash() {
	out, err := ppa.RunWithFailure(
		ppa.RunConfig{App: "mcf", Scheme: ppa.SchemePPA, InstsPerThread: 10_000}, 20_000)
	if err != nil {
		panic(err)
	}
	fmt.Println("crash consistent:", out.Violation == "")
	// Output: crash consistent: true
}

// Customizing the machine: shrink the physical register file (Figure 16).
func ExampleRunConfig_customize() {
	res, err := ppa.Run(ppa.RunConfig{
		App:            "hmmer",
		Scheme:         ppa.SchemePPA,
		InstsPerThread: 10_000,
		Customize: func(cfg *ppa.MachineConfig) {
			cfg.Pipeline.Rename.IntPhysRegs = 80
			cfg.Pipeline.Rename.FPPhysRegs = 80
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("regions are short with an 80/80 PRF:", res.AvgRegionLen() < 100)
	// Output: regions are short with an 80/80 PRF: true
}

// Surviving a failure storm (energy-harvesting style).
func ExampleRunWithFailureSchedule() {
	out, err := ppa.RunWithFailureSchedule(
		ppa.RunConfig{App: "gcc", Scheme: ppa.SchemePPA, InstsPerThread: 10_000},
		ppa.FailEvery(8_000, 8_000))
	if err != nil {
		panic(err)
	}
	fmt.Println("completed:", out.Completed, "all consistent:", out.Consistent())
	// Output: completed: true all consistent: true
}
