// ppareport diff: cross-run regression gate. It loads two metric registry
// snapshots (`/snapshot.json` arrays or `-metrics` JSON Lines), flattens
// each into a comparable key→value series, and reports every drift beyond
// the threshold. Keys are classified lower-is-better or higher-is-better by
// regexp; a gated key that moves in its bad direction by more than
// -threshold-pct is a regression and the command exits 1.
//
//	ppareport diff -threshold-pct 50 -out diff.json old-metrics.jsonl new-metrics.jsonl
//	ppareport diff -two-sided -threshold-pct 3 audit/full.json audit/sampled.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"

	"ppa/internal/obs"
)

// Default direction classifiers. Keys matching neither are informational:
// shown when they drift, never gated.
const (
	defaultLowerBetter  = `ns_per|allocs_per|bytes_per|_ms$|/p50$|/p95$|/p99$|stall|reject|violation|drain-wait|commit-to-durable`
	defaultHigherBetter = `per_sec$|/speedup$`
)

type diffRow struct {
	Key        string  `json:"key"`
	Old        float64 `json:"old"`
	New        float64 `json:"new"`
	DeltaPct   float64 `json:"delta_pct"`
	Direction  string  `json:"direction"` // lower-better | higher-better | info
	Regression bool    `json:"regression"`
}

type diffReport struct {
	Schema       string    `json:"schema"`
	OldPath      string    `json:"old"`
	NewPath      string    `json:"new"`
	ThresholdPct float64   `json:"threshold_pct"`
	TwoSided     bool      `json:"two_sided,omitempty"`
	Regressions  int       `json:"regressions"`
	Rows         []diffRow `json:"rows"`
	OnlyOld      []string  `json:"only_in_old,omitempty"`
	OnlyNew      []string  `json:"only_in_new,omitempty"`
}

// runDiff is the entry point for `ppareport diff <old> <new>`.
func runDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold-pct", 20, "gated keys moving in their bad direction by more than this percentage are regressions")
	twoSided := fs.Bool("two-sided", false, "gate every shared key on |delta| > threshold regardless of direction (equivalence checking, e.g. sampled-vs-full audits)")
	lowerRe := fs.String("lower", defaultLowerBetter, "regexp for lower-is-better keys (gated)")
	higherRe := fs.String("higher", defaultHigherBetter, "regexp for higher-is-better keys (gated)")
	outPath := fs.String("out", "", "write the full diff as JSON (CI artifact)")
	quiet := fs.Bool("q", false, "print regressions only")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ppareport diff [flags] <old> <new>\n\n"+
			"Compares two metric snapshots (/snapshot.json arrays or -metrics\n"+
			"JSON Lines; formats are auto-detected and may be mixed)\n"+
			"and exits 1 when a gated key regresses past the threshold.\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	lower, err := regexp.Compile(*lowerRe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppareport: bad -lower regexp: %v\n", err)
		return 2
	}
	higher, err := regexp.Compile(*higherRe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppareport: bad -higher regexp: %v\n", err)
		return 2
	}

	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	oldSeries, err := loadSeries(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppareport: %s: %v\n", oldPath, err)
		return 2
	}
	newSeries, err := loadSeries(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppareport: %s: %v\n", newPath, err)
		return 2
	}

	rep := diffSeries(oldSeries, newSeries, *threshold, lower, higher, *twoSided)
	rep.OldPath, rep.NewPath = oldPath, newPath

	printDiff(os.Stdout, rep, *quiet)
	if *outPath != "" {
		if err := writeDiffJSON(*outPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "ppareport: %v\n", err)
			return 2
		}
	}
	if rep.Regressions > 0 {
		fmt.Fprintf(os.Stderr, "ppareport: %d regression(s) beyond %.0f%%\n", rep.Regressions, *threshold)
		return 1
	}
	return 0
}

// diffSeries compares two flattened series and classifies every shared key.
// With twoSided set, direction classification is bypassed: every shared key
// is gated on the absolute drift — the shape an equivalence check (sampled
// vs full run of the same trajectory) wants, where movement in either
// direction is equally wrong.
func diffSeries(oldS, newS map[string]float64, threshold float64, lower, higher *regexp.Regexp, twoSided bool) *diffReport {
	rep := &diffReport{Schema: "ppa-diff/v1", ThresholdPct: threshold, TwoSided: twoSided}
	keys := make([]string, 0, len(oldS))
	for k := range oldS {
		if _, ok := newS[k]; ok {
			keys = append(keys, k)
		} else {
			rep.OnlyOld = append(rep.OnlyOld, k)
		}
	}
	for k := range newS {
		if _, ok := oldS[k]; !ok {
			rep.OnlyNew = append(rep.OnlyNew, k)
		}
	}
	sort.Strings(keys)
	sort.Strings(rep.OnlyOld)
	sort.Strings(rep.OnlyNew)

	for _, k := range keys {
		o, n := oldS[k], newS[k]
		row := diffRow{Key: k, Old: o, New: n, Direction: "info"}
		switch {
		case twoSided:
			row.Direction = "two-sided"
		case lower.MatchString(k):
			row.Direction = "lower-better"
		case higher.MatchString(k):
			row.Direction = "higher-better"
		}
		if o != 0 {
			row.DeltaPct = (n - o) / o * 100
			// A zero baseline can't express a percentage change, so such
			// keys are never gated — they still show in the table.
			switch row.Direction {
			case "two-sided":
				row.Regression = row.DeltaPct > threshold || row.DeltaPct < -threshold
			case "lower-better":
				row.Regression = row.DeltaPct > threshold
			case "higher-better":
				row.Regression = row.DeltaPct < -threshold
			}
		}
		if row.Regression {
			rep.Regressions++
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

func printDiff(w io.Writer, rep *diffReport, quiet bool) {
	fmt.Fprintf(w, "# Diff: %s -> %s (threshold %.0f%%)\n\n", rep.OldPath, rep.NewPath, rep.ThresholdPct)
	shown := 0
	for _, r := range rep.Rows {
		if quiet && !r.Regression {
			continue
		}
		status := "   "
		switch {
		case r.Regression:
			status = "REG"
		case r.Direction != "info" && r.DeltaPct != 0:
			status = "ok "
		case r.DeltaPct == 0:
			continue // unchanged: noise
		}
		fmt.Fprintf(w, "%s  %-60s %14.4g -> %-14.4g %+8.1f%%  (%s)\n",
			status, r.Key, r.Old, r.New, r.DeltaPct, r.Direction)
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(w, "no drift")
	}
	if len(rep.OnlyOld) > 0 {
		fmt.Fprintf(w, "\n%d key(s) only in old: %s\n", len(rep.OnlyOld), strings.Join(head(rep.OnlyOld, 5), ", "))
	}
	if len(rep.OnlyNew) > 0 {
		fmt.Fprintf(w, "%d key(s) only in new: %s\n", len(rep.OnlyNew), strings.Join(head(rep.OnlyNew, 5), ", "))
	}
	fmt.Fprintf(w, "\n%d key(s) compared, %d regression(s)\n", len(rep.Rows), rep.Regressions)
}

func head(s []string, n int) []string {
	if len(s) > n {
		return append(s[:n:n], "...")
	}
	return s
}

func writeDiffJSON(path string, rep *diffReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadSeries reads one snapshot file and flattens it into key→value pairs.
// Two formats are auto-detected: a metric snapshot array (/snapshot.json)
// and metric JSON Lines (-metrics output), one named sample per line.
func loadSeries(path string) (map[string]float64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimSpace(blob)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("empty file")
	}
	if trimmed[0] == '[' {
		var samples []obs.Sample
		if err := json.Unmarshal(trimmed, &samples); err != nil {
			return nil, fmt.Errorf("parse snapshot array: %w", err)
		}
		return flattenSamples(samples), nil
	}
	var samples []obs.Sample
	sc := bufio.NewScanner(bytes.NewReader(trimmed))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var s obs.Sample
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, fmt.Errorf("parse metrics JSONL: %w", err)
		}
		if s.Name == "" {
			return nil, fmt.Errorf("parse metrics JSONL: sample without a name")
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return flattenSamples(samples), nil
}

// flattenSamples maps counters and gauges to their value and histograms to
// key/{count,mean,p50,p95,p99} sub-keys.
func flattenSamples(samples []obs.Sample) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		if s.Kind != "histogram" {
			out[s.Name] = s.Value
			continue
		}
		out[s.Name+"/count"] = float64(s.Count)
		if s.Count > 0 {
			out[s.Name+"/mean"] = s.Sum / float64(s.Count)
			out[s.Name+"/p50"] = s.P50
			out[s.Name+"/p95"] = s.P95
			out[s.Name+"/p99"] = s.P99
		}
	}
	return out
}
