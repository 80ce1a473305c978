// Command perfbench is the repository's cost ledger: one process runs one of
// four named workloads (zoo-detailed, sampled, crash-sweep, litmus) for a
// fixed time, checks the simulator's outputs, and prints the end-to-end
// metrics; with -trace 1 it instead times calls into each layer's public
// functions and prints the per-layer split. See README.md for the metric
// map and BENCHMARK.json for the bounds.
//
//	go run . --workload zoo-detailed --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Earlier lines carry the
// human-readable ledger: host metadata, the workload's end-to-end figures
// under their own names, digests, and (traced) the layer closure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Metric is one reported figure with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the contract line printed last.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// probe asks a traced pass for one short round, run from another
	// workload's traced run to measure the layers that workload never calls.
	probe  bool
	record string
	seeds  string
}

// workloadDef names one workload and its two run modes.
type workloadDef struct {
	name string
	why  string
	run  func(o options) (*Result, error)
	// traced returns the per-layer metrics measured on the workload.
	traced func(o options) (*tracedPart, error)
}

func workloads() []workloadDef {
	return []workloadDef{
		{name: "zoo-detailed", why: whyZoo, run: runZoo, traced: tracedZoo},
		{name: "sampled", why: whySampled, run: runSampled, traced: tracedSampled},
		{name: "crash-sweep", why: whyCrash, run: runCrash, traced: tracedCrash},
		{name: "litmus", why: whyLitmus, run: runLitmus, traced: tracedLitmus},
	}
}

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed (traces, torture points, litmus corpus and schedules)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics from a traced run instead of the end-to-end ones")
	fs.StringVar(&o.record, "record-reference", "", "write the output digests of zoo-detailed and sampled for -seeds to this file and exit")
	fs.StringVar(&o.seeds, "seeds", "0-31,9001", "seeds for -record-reference: comma-separated seeds and lo-hi ranges")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.record != "" {
		return recordReference(o.record, o.seeds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	var def *workloadDef
	for _, w := range workloads() {
		if w.name == o.workload {
			w := w
			def = &w
		}
	}
	if def == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	printLine("host", hostInfo())
	var res *Result
	var err error
	if o.trace {
		res, err = runTraced(*def, o)
	} else {
		res, err = def.run(o)
	}
	if err != nil {
		return err
	}
	if err := checkMetricSet(res, o.trace); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

// checkMetricSet refuses to print a result line whose metric set differs
// from the one BENCHMARK.json declares for the mode.
func checkMetricSet(res *Result, traced bool) error {
	want := endToEndMetrics()
	if traced {
		want = perLayerMetrics()
	}
	var missing, extra []string
	for _, m := range want {
		if _, ok := res.Metrics[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	names := make(map[string]bool, len(want))
	for _, m := range want {
		names[m.name] = true
	}
	for k := range res.Metrics {
		if !names[k] {
			extra = append(extra, k)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return errors.New("metric set mismatch: missing " + strings.Join(missing, ",") + " extra " + strings.Join(extra, ","))
	}
	return nil
}

// printLine writes one labelled JSON ledger line to standard output.
func printLine(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode %s: %v\n", label, err)
		return
	}
	fmt.Printf("%s %s\n", label, b)
}
