// Command ppareport runs the complete evaluation and emits a Markdown
// report in the structure of EXPERIMENTS.md: every figure's headline
// statistic, the tables, the ablations, and the write-amplification study,
// each labelled with the paper's published value for side-by-side reading.
//
//	ppareport -insts 60000 > report.md
//
// With -trace it instead analyzes a Chrome trace_event file produced by
// ppasim/ppabench and prints the per-region stall breakdown:
//
//	ppasim -app mcf -scheme ppa -trace out.json
//	ppareport -trace out.json
//
// The diff subcommand compares two metric snapshots (/snapshot.json arrays
// or -metrics JSON Lines) and exits non-zero when a gated key regresses past
// the threshold:
//
//	ppareport diff -threshold-pct 50 old-metrics.jsonl new-metrics.jsonl
//
// The forensics subcommand renders a violation flight-recorder bundle
// (written by ppatorture/ppalitmus -forensics, or collected by a ppafabric
// coordinator) as a human-readable post-mortem:
//
//	ppareport forensics forensic-bundles/forensic-001-torture-violation.ppab
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ppa"
)

var (
	insts     = flag.Int("insts", 30_000, "dynamic instructions per thread")
	tracePath = flag.String("trace", "", "analyze a Chrome trace_event file (from ppasim/ppabench -trace) instead of running the evaluation")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppareport: ")
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(runDiff(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "forensics" {
		os.Exit(runForensics(os.Args[2:]))
	}
	flag.Parse()

	if *tracePath != "" {
		if err := reportTrace(os.Stdout, *tracePath); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("# PPA reproduction report\n\n")
	fmt.Printf("Machine: Table 2 defaults. %d instructions per thread.\n\n", *insts)
	fmt.Printf("| Experiment | Paper | Measured |\n|---|---|---|\n")

	row := func(name, paper, measured string) {
		fmt.Printf("| %s | %s | %s |\n", name, paper, measured)
	}

	if s, err := ppa.Fig01(*insts); err == nil {
		row("Fig 1 — ReplayCache slowdown", "~5.0x", fmt.Sprintf("%.2fx", s.GMean))
	} else {
		fail("fig 1", err)
	}
	if r, err := ppa.Fig08(*insts); err == nil {
		row("Fig 8 — PPA overhead", "2%", pct(r.PPA.GMean))
		row("Fig 8 — Capri overhead", "26%", pct(r.Capri.GMean))
	} else {
		fail("fig 8", err)
	}
	if r, err := ppa.Fig09(*insts); err == nil {
		row("Fig 9 — PPA vs DRAM-only", "16%", pct(r.PPA.GMean))
		row("Fig 9 — memory mode vs DRAM-only", "14%", pct(r.MemoryMode.GMean))
	} else {
		fail("fig 9", err)
	}
	if r, err := ppa.Fig10(*insts); err == nil {
		row("Fig 10 — PPA (mem-intensive)", "3%", pct(r.PPA.GMean))
		row("Fig 10 — ideal PSP (eADR/BBB)", "39%", pct(r.PSP.GMean))
	} else {
		fail("fig 10", err)
	}
	if s, err := ppa.Fig11(*insts); err == nil {
		row("Fig 11 — region-end stalls (mean)", "0.21%", fmt.Sprintf("%.2f%%", s.GMean))
	} else {
		fail("fig 11", err)
	}
	if s, err := ppa.Fig12(*insts); err == nil {
		row("Fig 12 — rename-stall increase", "0.07%", fmt.Sprintf("%.2f%%", s.GMean))
	} else {
		fail("fig 12", err)
	}
	if r, err := ppa.Fig13(*insts); err == nil {
		row("Fig 13 — region size", "18 stores + 301 others",
			fmt.Sprintf("%.0f stores + %.0f others", r.AvgStores, r.AvgOthers))
	} else {
		fail("fig 13", err)
	}
	if s, err := ppa.Fig14(*insts); err == nil {
		row("Fig 14 — PPA with L3", "~1%", pct(s.GMean))
	} else {
		fail("fig 14", err)
	}
	if pts, err := ppa.Fig15(*insts); err == nil {
		row("Fig 15 — WPQ-8", "~8%", pct(pts[0].GMean))
	} else {
		fail("fig 15", err)
	}
	if pts, err := ppa.Fig16(*insts); err == nil {
		row("Fig 16 — RF-80/80", "~12%", pct(pts[0].GMean))
	} else {
		fail("fig 16", err)
	}
	if pts, err := ppa.Fig17(*insts); err == nil {
		row("Fig 17 — CSQ-10", "small", pct(pts[0].GMean))
	} else {
		fail("fig 17", err)
	}
	if pts, err := ppa.Fig18(*insts); err == nil {
		row("Fig 18 — 1 GB/s write BW", "~7%", pct(pts[0].GMean))
	} else {
		fail("fig 18", err)
	}
	if pts, err := ppa.Fig19(*insts / 2); err == nil {
		row("Fig 19 — 64 threads", "2-6%", pct(pts[len(pts)-1].GMean))
	} else {
		fail("fig 19", err)
	}

	t5 := ppa.Table5()
	row("Tab 4 — areal overhead", "0.005%",
		fmt.Sprintf("%.4f%%", ppa.Table4ArealOverhead()*100))
	row("Tab 5 — PPA JIT energy", "21.7 uJ", fmt.Sprintf("%.1f uJ", t5.Rows[0].EnergyUJ))
	row("7.13 — checkpoint bytes", "1838", fmt.Sprintf("%d", t5.WorstCaseBytes))
	row("7.13 — controller read time", "114.9 ns", fmt.Sprintf("%.1f ns", t5.ReadTimeNS))

	fmt.Printf("\n## Ablations\n\n| Ablation | PPA | Ablated |\n|---|---|---|\n")
	abls, err := ppa.Ablations(*insts / 2)
	if err != nil {
		fail("ablations", err)
	} else {
		for _, a := range abls {
			fmt.Printf("| %s | %.3f | %.3f |\n", a.Name, a.PPAGMean, a.AblGMean)
		}
	}

	fmt.Printf("\n## Write amplification (Section 2.4)\n\n| app | PPA wr/kI | RC wr/kI | RC/PPA |\n|---|---|---|---|\n")
	rows, err := ppa.WriteAmplification(*insts / 2)
	if err != nil {
		fail("writeamp", err)
	} else {
		for _, r := range rows {
			fmt.Printf("| %s | %.1f | %.1f | %.1fx |\n", r.App, r.PPA, r.ReplayCache, r.RCOverPPA)
		}
	}
}

func pct(slowdown float64) string { return fmt.Sprintf("%.1f%%", (slowdown-1)*100) }

func fail(what string, err error) {
	fmt.Fprintf(os.Stderr, "ppareport: %s failed: %v\n", what, err)
}
