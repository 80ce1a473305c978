package fabric

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppa"
	"ppa/internal/forensics"
	"ppa/internal/obs"
)

// traceTestSpec is a tiny sweep for synthetic-completion tests: nothing is
// simulated, units are completed by hand-built requests.
func traceTestSpec() Spec {
	return Spec{
		App: "mcf", Scheme: "ppa", Insts: 400, Points: 12, Seed: 11,
		MinCycle: 200, MaxCycle: 1200, UnitSize: 4,
	}
}

// syntheticCompletion builds a valid completion for a unit with a span
// fragment attributed to the named worker.
func syntheticCompletion(t *testing.T, spec Spec, u Unit, worker string, trace []obs.WireEvent) *CompleteRequest {
	t.Helper()
	points, err := spec.PointList()
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*ppa.CrashVerdict, u.Range.Len())
	for i := range outs {
		outs[i] = &ppa.CrashVerdict{Point: points[u.Range.Start+i], Recovered: true}
	}
	return &CompleteRequest{UnitID: u.ID, Worker: worker, Outcomes: outs, Trace: trace}
}

// unitSpan makes one well-formed wire span on the unit's track.
func unitSpan(unit int, ts uint64, name string) obs.WireEvent {
	return obs.WireEvent{TS: ts, Dur: 50, Ph: "X", Track: unit, Name: name, Cat: "fabric",
		Args: []obs.WireArg{{K: "unit", V: int64(unit)}}}
}

// TestFleetTraceMergeDeterministic pins the fleet trace's headline
// property: the merged Chrome trace is a pure function of the completed
// units — byte-identical no matter what order fragments arrived in — with
// one process lane per worker.
func TestFleetTraceMergeDeterministic(t *testing.T) {
	spec := traceTestSpec()
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 3 {
		t.Fatalf("want 3 units, got %d", len(units))
	}

	// Unit 0 and 2 from w2, unit 1 from w1: lanes must sort by worker name,
	// fragments within a lane must follow unit-index order.
	reqs := []*CompleteRequest{
		syntheticCompletion(t, spec, units[0], "w2", []obs.WireEvent{unitSpan(0, 100, "run")}),
		syntheticCompletion(t, spec, units[1], "w1", []obs.WireEvent{unitSpan(1, 200, "run")}),
		syntheticCompletion(t, spec, units[2], "w2", []obs.WireEvent{unitSpan(2, 300, "run")}),
	}
	reqs[1].TraceDropped = 3

	orders := [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}}
	var traces []string
	for _, order := range orders {
		coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, Hub: obs.NewHub(0)})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if _, err := coord.complete(reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got := coord.TraceDropped(); got != 3 {
			t.Fatalf("TraceDropped = %d, want 3", got)
		}
		var buf bytes.Buffer
		if err := coord.WriteFleetTrace(&buf); err != nil {
			t.Fatal(err)
		}
		traces = append(traces, buf.String())
	}
	for i := 1; i < len(traces); i++ {
		if traces[i] != traces[0] {
			t.Fatalf("fleet trace differs between arrival orders %v and %v:\n%s\nvs\n%s",
				orders[0], orders[i], traces[0], traces[i])
		}
	}

	// Lane structure: w1 and w2 as separate processes (sorted), plus the
	// coordinator's dropped-marker lane, all valid JSON.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(traces[0]), &doc); err != nil {
		t.Fatalf("fleet trace is not valid JSON: %v", err)
	}
	procs := map[float64]string{}
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "process_name" {
			args := ev["args"].(map[string]any)
			procs[ev["pid"].(float64)] = args["name"].(string)
		}
	}
	if procs[0] != "coordinator" || procs[1] != "worker:w1" || procs[2] != "worker:w2" {
		t.Fatalf("process lanes = %v, want coordinator/worker:w1/worker:w2 at pids 0/1/2", procs)
	}
}

// TestFleetTraceHTTP exercises the coordinator's /trace and /healthz
// endpoints over real HTTP: the dropped-count header, the content type,
// and the health document.
func TestFleetTraceHTTP(t *testing.T) {
	spec := traceTestSpec()
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, Hub: obs.NewHub(0)})
	if err != nil {
		t.Fatal(err)
	}
	req := syntheticCompletion(t, spec, units[0], "w1", []obs.WireEvent{unitSpan(0, 100, "run")})
	req.TraceDropped = 7
	if _, err := coord.complete(req); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceDroppedHeader); got != "7" {
		t.Fatalf("%s = %q, want 7", obs.TraceDroppedHeader, got)
	}
	if !json.Valid(body) || !strings.Contains(string(body), `"worker:w1"`) {
		t.Fatalf("/trace body missing worker lane: %s", body)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		SpecHash string `json:"spec_hash"`
		UptimeMS int64  `json:"uptime_ms"`
		Units    int    `json:"units"`
		Done     int    `json:"done"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.SpecHash != coord.SpecHash() || health.Units != 3 || health.Done != 1 {
		t.Fatalf("healthz = %+v", health)
	}
}

// TestFleetTraceHostileFragments pins the ingestion hardening: oversized
// fragments are truncated (and counted as dropped), malformed events are
// skipped, unknown fields in the completion are rejected outright, and
// bundle blobs that are garbage or oversized never reach the forensics
// directory.
func TestFleetTraceHostileFragments(t *testing.T) {
	spec := traceTestSpec()
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	forensicsDir := filepath.Join(t.TempDir(), "bundles")
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, Hub: obs.NewHub(0), ForensicsDir: forensicsDir})
	if err != nil {
		t.Fatal(err)
	}

	// An oversized fragment with a sprinkling of bogus phases: the cap
	// truncates, the decoder drops what it cannot classify, and every
	// missing event is accounted for in TraceDropped.
	big := make([]obs.WireEvent, MaxTraceEventsPerUnit+10)
	for i := range big {
		big[i] = unitSpan(0, uint64(i), "run")
	}
	big[5].Ph = "Z" // unknown phase: dropped by import
	req := syntheticCompletion(t, spec, units[0], "w1", big)

	// Bundles: one valid, one garbage, one oversized. Only the valid one
	// may land on disk.
	valid := (&forensics.Bundle{Meta: forensics.Meta{Kind: forensics.KindTortureViolation, Reason: "test"}}).Encode()
	req.Bundles = [][]byte{valid, []byte("not a bundle"), make([]byte, MaxBundleBytes+1)}

	if _, err := coord.complete(req); err != nil {
		t.Fatal(err)
	}
	// 4106 sent, 4096 kept (the bad-phase event is skipped and the cap
	// refills from the remainder): 10 accounted as dropped.
	if got := coord.TraceDropped(); got != 10 {
		t.Fatalf("TraceDropped = %d, want 10", got)
	}
	files := coord.BundleFiles()
	if len(files) != 1 {
		t.Fatalf("BundleFiles = %v, want exactly the valid bundle", files)
	}
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := forensics.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta.Kind != forensics.KindTortureViolation || b.Meta.Reason != "test" {
		t.Fatalf("persisted bundle mangled: %+v", b.Meta)
	}

	// Unknown fields in a completion are rejected at the HTTP layer before
	// any of the above runs.
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/complete", "application/json",
		strings.NewReader(`{"unit_id":"x","outcomes":[],"surprise":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field completion answered %d, want 400", resp.StatusCode)
	}
}
