// Failure storm: the energy-harvesting torture scenario PPA's lineage
// (ReplayCache) was built for — power fails over and over, and forward
// progress must survive anyway. The example drives a workload through a
// periodic failure schedule: at every outage the machine JIT-checkpoints a
// couple of kilobytes, loses every volatile byte, replays the CSQ, verifies
// the crash-consistency contract, and resumes after the LCPC.
//
//	go run ./examples/failstorm [app] [periodCycles]
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
	period := uint64(8_000)
	if len(os.Args) > 1 {
		app = os.Args[1]
	}
	if len(os.Args) > 2 {
		n, err := strconv.ParseUint(os.Args[2], 10, 64)
		if err != nil {
			log.Fatalf("bad period: %v", err)
		}
		period = n
	}

	fmt.Printf("Running %q under PPA with power failing every %d cycles...\n\n", app, period)
	out, err := ppa.RunWithFailureSchedule(
		ppa.RunConfig{App: app, Scheme: ppa.SchemePPA, InstsPerThread: 30_000},
		ppa.FailEvery(period, period))
	if err != nil {
		log.Fatal(err)
	}

	failures := len(out.Verdicts)
	fmt.Printf("power failures survived:  %d\n", failures)
	fmt.Printf("workload completed:       %v\n", out.Completed)
	fmt.Printf("every recovery verified:  %v\n", out.Consistent())
	fmt.Printf("total simulated cycles:   %d\n", out.TotalCycles)
	if failures > 0 {
		dumped := 0
		for _, v := range out.Verdicts {
			dumped += v.CheckpointBytes
		}
		fmt.Printf("checkpoint traffic:       %d bytes total (%d bytes/outage — vs eADR's megabytes of cache)\n",
			dumped, dumped/failures)
	}
	if !out.Consistent() {
		log.Fatalf("LOST %d committed words — crash consistency violated", lostWords(out))
	}

	fmt.Println("\nFor contrast, the memory-mode baseline through the same storm:")
	base, err := ppa.RunWithFailureSchedule(
		ppa.RunConfig{App: app, Scheme: ppa.SchemeBaseline, InstsPerThread: 30_000},
		ppa.FailEvery(period, period))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline lost %d committed words across %d failures.\n",
		lostWords(base), len(base.Verdicts))
}

// lostWords sums the committed words each recovery in o failed to restore.
func lostWords(o *ppa.ScheduleOutcome) int {
	n := 0
	for _, v := range o.Verdicts {
		n += v.Inconsistencies
	}
	return n
}
