// Key-value store scenario: the WHISPER-style workloads that motivated
// persistent memory in the first place. This example runs the memcached
// profiles (r20w80, r50w50) and the red-black-tree index (rb) on eight
// cores under four designs and prints the trade-off table the paper's
// introduction describes:
//
//   - memory mode (fast, volatile),
//   - app-direct / eADR PSP (persistent, loses the DRAM cache),
//   - Capri (persistent, redo-logging WSP),
//   - PPA (persistent, ~memory-mode speed).
//
// It also crashes the PPA run mid-flight and verifies that every committed
// update survives — the property a durable KV store actually needs.
//
//	go run ./examples/keyvalue
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"ppa"
)

const insts = 30_000

func main() {
	log.SetFlags(0)
	apps := []string{"r20w80", "r50w50", "rb"}
	schemes := []ppa.Scheme{ppa.SchemeBaseline, ppa.SchemeEADR, ppa.SchemeCapri, ppa.SchemePPA}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tscheme\tcycles\tslowdown\tpersistent?\tcrash-consistent?")
	for _, app := range apps {
		var baseCycles uint64
		for _, scheme := range schemes {
			res, err := ppa.Run(ppa.RunConfig{App: app, Scheme: scheme, InstsPerThread: insts})
			if err != nil {
				log.Fatal(err)
			}
			if scheme == ppa.SchemeBaseline {
				baseCycles = res.Cycles
			}
			persistent := "no"
			consistent := "no"
			if res.Scheme.Persistent() {
				persistent = "yes"
				consistent = "yes"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\t%s\t%s\n",
				app, scheme, res.Cycles,
				float64(res.Cycles)/float64(baseCycles), persistent, consistent)
		}
	}
	tw.Flush()

	// Durability drill: kill the power mid-run under PPA and prove that no
	// committed update was lost across all eight server threads.
	fmt.Println("\nDurability drill: power failure at cycle 20000 under PPA (r20w80, 8 threads)...")
	out, err := ppa.RunWithFailure(ppa.RunConfig{App: "r20w80", Scheme: ppa.SchemePPA, InstsPerThread: insts}, 20_000)
	if err != nil {
		log.Fatal(err)
	}
	if out.Completed {
		fmt.Println("run finished before the failure — nothing to recover")
		return
	}
	replayed := 0
	for _, pc := range out.PerCore {
		replayed += pc.ReplayedWords
	}
	fmt.Printf("  checkpointed %d bytes, replayed %d words across %d cores\n",
		out.CheckpointBytes, replayed, len(out.PerCore))
	if out.Inconsistencies != 0 {
		log.Fatalf("  LOST %d committed updates", out.Inconsistencies)
	}
	fmt.Println("  every committed update survived; server threads resumed after their LCPCs")
}
