// Command ppaverify runs crash-consistency verification campaigns: it
// crashes a workload at many random cycles, recovers, and checks the NVM
// image against a golden in-order execution's committed prefix every time.
// With -lockstep each trial also runs the differential oracle (golden-model
// lockstep at commit plus persist-ordering checks); with -mutations it runs
// the mutation-testing gate instead, which cuts every cycle of each seeded
// bug's run and demands every bug be caught.
//
//	ppaverify -app mcf -n 20               # 20 random failures under PPA
//	ppaverify -app all -n 5 -lockstep      # oracle-checked sweep over all apps
//	ppaverify -app mcf -scheme baseline    # watch the baseline lose data
//	ppaverify -mutations -out gate.json    # seeded-bug catch-rate gate
//	ppaverify -config inorder.json -lockstep   # Section 6's in-order core
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"ppa"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppaverify: ")
	app := flag.String("app", "mcf", "application, or 'all'")
	scheme := flag.String("scheme", "ppa", "persistence scheme; not with -mutations, whose seeded bugs each declare theirs")
	n := flag.Int("n", 10, "failure points per application; not with -mutations")
	insts := flag.Int("insts", 20_000, "dynamic instructions per thread")
	seed := flag.Int64("seed", 42, "failure-schedule seed; not with -mutations")
	lockstep := flag.Bool("lockstep", false, "run each trial under the differential lockstep oracle (golden-model commit checks + persist ordering + post-recovery image checks)")
	mutations := flag.Bool("mutations", false, "run the mutation-testing gate: enable each seeded bug in turn and require the oracle or the consistency checks to catch it")
	outPath := flag.String("out", "", "write the campaign report(s) as JSON (the CI artifact)")
	configPath := flag.String("config", "", "JSON machine-config override file, as ppasim -config (e.g. Section 6's in-order core); not with -mutations")
	flag.Parse()

	var customize func(*ppa.MachineConfig)
	if *configPath != "" {
		if *mutations {
			// The gate's verdicts are calibrated on its own machines.
			log.Fatalf("invalid -config %s: the -mutations gate runs every seeded bug on its own default machines and takes no machine config; run -config without -mutations", *configPath)
		}
		var err error
		if customize, err = ppa.MachineCustomizerFromFile(*configPath); err != nil {
			log.Fatal(err)
		}
	}

	if *mutations {
		// The gate cuts every cycle of each bug's run under the scheme the
		// bug declares, so it has no trial count, schedule seed or scheme to
		// take; only -app and -insts, when set, override its defaults.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range []string{"n", "seed", "scheme"} {
			if set[name] {
				log.Fatalf("invalid -%s: the -mutations gate cuts every cycle of each seeded bug's run under the scheme the bug declares, and takes no -n, -seed or -scheme; run -%s without -mutations", name, name)
			}
		}
		var cc ppa.MutationCampaignConfig
		if set["app"] {
			cc.App = *app
		}
		if set["insts"] {
			cc.InstsPerThread = *insts
		}
		runMutationGate(cc, *outPath)
		return
	}

	apps := []string{*app}
	if *app == "all" {
		apps = ppa.Apps()
	}

	failed := false
	var reports []*ppa.VerifyReport
	for _, a := range apps {
		report, err := ppa.VerifyAppOpts(ppa.VerifyOptions{
			App:            a,
			Scheme:         ppa.Scheme(*scheme),
			InstsPerThread: *insts,
			Trials:         *n,
			Seed:           *seed,
			Lockstep:       *lockstep,
			Customize:      customize,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(report)
		reports = append(reports, report)
		if !report.OK() {
			failed = true
		}
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, reports); err != nil {
			log.Fatal(err)
		}
	}
	if failed {
		fmt.Println("\nverification FAILED (expected for non-crash-consistent schemes like 'baseline')")
		os.Exit(1)
	}
	fmt.Println("\nall recoveries crash consistent")
}

// runMutationGate runs the seeded-bug campaign and exits non-zero unless
// every bug was caught with no false alarm on the unmutated simulator.
func runMutationGate(cc ppa.MutationCampaignConfig, outPath string) {
	rep, err := ppa.RunMutationCampaign(cc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep)
	if outPath != "" {
		if err := writeJSON(outPath, rep); err != nil {
			log.Fatal(err)
		}
	}
	if !rep.AllCaught() {
		fmt.Printf("\nmutation gate FAILED: %d/%d seeded bugs caught\n", rep.Caught, rep.Total)
		os.Exit(1)
	}
	fmt.Printf("\nmutation gate passed: %d/%d seeded bugs caught\n", rep.Caught, rep.Total)
}

func writeJSON(path string, v interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
