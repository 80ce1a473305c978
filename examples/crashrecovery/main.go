// Crash recovery: the heart of the paper. This example runs an application
// under PPA, cuts power at a chosen cycle, JIT-checkpoints the five
// recovery structures (CSQ, LCPC, CRT, MaskReg, and the referenced physical
// registers), loses every volatile byte, recovers by replaying the CSQ,
// verifies the crash-consistency contract against a golden in-order
// execution, and resumes the interrupted program to completion.
//
// It then repeats the crash on the memory-mode baseline to show the data
// loss PPA exists to prevent.
//
//	go run ./examples/crashrecovery [app] [failCycle]
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"ppa"
)

func main() {
	log.SetFlags(0)
	app := "mcf"
	failCycle := uint64(50_000)
	if len(os.Args) > 1 {
		app = os.Args[1]
	}
	if len(os.Args) > 2 {
		n, err := strconv.ParseUint(os.Args[2], 10, 64)
		if err != nil {
			log.Fatalf("bad fail cycle: %v", err)
		}
		failCycle = n
	}

	fmt.Printf("=== PPA: power failure at cycle %d while running %q ===\n\n", failCycle, app)
	out, err := ppa.RunWithFailure(ppa.RunConfig{App: app, Scheme: ppa.SchemePPA}, failCycle)
	if err != nil {
		log.Fatal(err)
	}
	if out.Completed {
		log.Fatalf("the run finished before cycle %d; pick an earlier failure", failCycle)
	}

	fmt.Printf("JIT checkpoint:     %d bytes across %d core(s) (a tiny capacitor's worth)\n",
		out.CheckpointBytes, len(out.PerCore))
	for _, pc := range out.PerCore {
		fmt.Printf("  core %d: replayed %d committed-but-unpersisted words, resuming at instruction %d\n",
			pc.CoreID, pc.ReplayedWords, pc.ResumeIndex)
	}
	if out.Inconsistencies == 0 {
		fmt.Printf("crash consistency:  VERIFIED — NVM holds the committed prefix of every thread\n")
	} else {
		log.Fatalf("crash consistency: FAILED with %d inconsistent words", out.Inconsistencies)
	}
	if out.ArchConsistent {
		fmt.Printf("register state:     VERIFIED — CRT + checkpointed registers equal the golden state\n")
	} else {
		log.Fatal("register state: FAILED")
	}
	fmt.Printf("resumed run:        %d more cycles to finish the interrupted programs\n\n",
		out.Resumed.Cycles)

	fmt.Printf("=== Baseline (memory mode, no persistence): same failure ===\n\n")
	base, err := ppa.RunWithFailure(ppa.RunConfig{App: app, Scheme: ppa.SchemeBaseline}, failCycle)
	if err != nil {
		log.Fatal(err)
	}
	if base.Inconsistencies == 0 {
		fmt.Println("baseline happened to be consistent at this cycle (rare) — try another failure point")
	} else {
		fmt.Printf("baseline lost %d committed words: the DRAM cache's dirty data vanished.\n",
			base.Inconsistencies)
		fmt.Println("This is why Optane's memory mode is documented as volatile — and what PPA fixes.")
	}
}
