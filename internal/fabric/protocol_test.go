package fabric

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ppa"
	"ppa/internal/fault"
	"ppa/internal/obs"
	"ppa/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the protocol golden files")

// goldenMessages is the canonical sample of every wire message, with all
// interesting fields populated. The golden files pin their exact bytes:
// an unintentional wire-format change (field rename, tag typo, new
// default) fails here before it strands a mixed-version fleet.
func goldenMessages() map[string][]byte {
	enc := func(b []byte, err error) []byte {
		if err != nil {
			panic(err)
		}
		return b
	}
	spec := Spec{
		App: "mcf", Scheme: "ppa", Insts: 1500, Points: 200, Seed: 7,
		MinCycle: 200, MaxCycle: 4000, Kind: "bit-flip", Oracle: true, UnitSize: 25,
	}
	unit := Unit{ID: UnitID(spec.Hash(), sweep.Range{Start: 25, End: 50}), Index: 1, Range: sweep.Range{Start: 25, End: 50}}
	outcome := &ppa.CrashVerdict{
		Point: ppa.TorturePoint{
			Cycle: 1234,
			Fault: ppa.Fault{Kind: fault.BitFlip, Param: 99, Seed: 3},
		},
		Cycle: 1234, Injected: true, Damaged: true, Detected: errors.New("checkpoint: bad checksum"),
		Attempts: 1, ArchConsistent: true,
	}
	return map[string][]byte{
		"spec_response": enc(EncodeSpecResponse(&SpecResponse{
			Version: ProtocolVersion, Spec: spec, SpecHash: spec.Hash(), Units: 8,
		})),
		"lease_request": enc(EncodeLeaseRequest(&LeaseRequest{
			Version: ProtocolVersion, Worker: "w1", SpecHash: spec.Hash(),
		})),
		"lease_response_grant": enc(EncodeLeaseResponse(&LeaseResponse{
			Unit: &unit, Lease: "lease-3", LeaseMS: 30_000,
			TraceEpochMicros: 1_700_000_000_000_000,
		})),
		"lease_response_retry": enc(EncodeLeaseResponse(&LeaseResponse{RetryMS: 500})),
		"lease_response_done":  enc(EncodeLeaseResponse(&LeaseResponse{Done: true})),
		"heartbeat_request": enc(EncodeHeartbeatRequest(&HeartbeatRequest{
			Lease: "lease-3", UnitID: unit.ID,
		})),
		"complete_request": enc(EncodeCompleteRequest(&CompleteRequest{
			Lease: "lease-3", UnitID: unit.ID, Worker: "w1",
			Outcomes: []*ppa.CrashVerdict{outcome},
			Metrics: []obs.WireMetric{
				{Name: "torture.points", Kind: "counter", Counter: 25},
				{Name: "persist.latency", Kind: "histogram", Hist: &obs.WireHistogram{
					Count: 2, Sum: 30, Min: 10, Max: 20,
					Buckets: []obs.WireBucket{{Index: 27, Count: 1}, {Index: 34, Count: 1}},
				}},
			},
			Trace: []obs.WireEvent{
				{TS: 100, Ph: "i", Track: 1, Name: "lease", Cat: "fabric",
					Args: []obs.WireArg{{K: "unit", V: 1}}},
				{TS: 120, Dur: 80_000, Ph: "X", Track: 1, Name: "run", Cat: "fabric",
					Args: []obs.WireArg{{K: "points", V: 25}, {K: "violations", V: 1}}},
			},
			TraceDropped: 2,
			Bundles:      [][]byte{{0x50, 0x50, 0x41, 0x42}},
		})),
	}
}

// TestProtocolGolden pins the wire format byte for byte.
func TestProtocolGolden(t *testing.T) {
	for name, got := range goldenMessages() {
		path := filepath.Join("testdata", name+".golden.json")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with: go test ./internal/fabric -run TestProtocolGolden -update)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire format changed\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// TestProtocolRoundTrip pins decode(encode(m)) == m for every message.
func TestProtocolRoundTrip(t *testing.T) {
	msgs := goldenMessages()

	sr, err := DecodeSpecResponse(msgs["spec_response"])
	if err != nil {
		t.Fatal(err)
	}
	if sr.SpecHash != sr.Spec.Hash() {
		t.Fatal("spec hash did not survive the round trip")
	}

	lr, err := DecodeLeaseRequest(msgs["lease_request"])
	if err != nil {
		t.Fatal(err)
	}
	if lr.Worker != "w1" || lr.Version != ProtocolVersion {
		t.Fatalf("lease request mangled: %+v", lr)
	}

	grant, err := DecodeLeaseResponse(msgs["lease_response_grant"])
	if err != nil {
		t.Fatal(err)
	}
	if grant.Unit == nil || grant.Unit.Range.Len() != 25 || grant.LeaseMS != 30_000 ||
		grant.TraceEpochMicros != 1_700_000_000_000_000 {
		t.Fatalf("lease grant mangled: %+v", grant)
	}

	cr, err := DecodeCompleteRequest(msgs["complete_request"])
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Outcomes) != 1 || cr.Outcomes[0].Detected == nil || cr.Outcomes[0].Detected.Error() != "checkpoint: bad checksum" ||
		len(cr.Metrics) != 2 {
		t.Fatalf("complete request mangled: %+v", cr)
	}
	if len(cr.Trace) != 2 || cr.Trace[1].Dur != 80_000 || cr.TraceDropped != 2 || len(cr.Bundles) != 1 {
		t.Fatalf("complete request observability payload mangled: %+v", cr)
	}
	reenc, err := EncodeCompleteRequest(cr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, msgs["complete_request"]) {
		t.Fatal("complete request re-encode is not canonical")
	}
}

// TestProtocolDecodeStrict pins the decoder's rejection surface: unknown
// fields, trailing garbage, wrong types, and oversized bodies all yield a
// typed *ProtocolError instead of a silent partial parse.
func TestProtocolDecodeStrict(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"unknown field", `{"version":1,"worker":"w","spec_hash":"x","bogus":1}`},
		{"trailing garbage", `{"version":1,"worker":"w","spec_hash":"x"} {"again":true}`},
		{"wrong type", `{"version":"one"}`},
		{"not json", `торт`},
		{"array not object", `[1,2,3]`},
	}
	for _, c := range cases {
		if _, err := DecodeLeaseRequest([]byte(c.data)); err == nil {
			t.Errorf("%s: decoder accepted %q", c.name, c.data)
		} else if _, ok := err.(*ProtocolError); !ok {
			t.Errorf("%s: error is %T, want *ProtocolError", c.name, err)
		}
	}

	huge := append([]byte(`{"worker":"`), bytes.Repeat([]byte("x"), MaxBodyBytes)...)
	huge = append(huge, []byte(`"}`)...)
	if _, err := DecodeLeaseRequest(huge); err == nil {
		t.Fatal("decoder accepted a body over the size cap")
	} else if !strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("oversize error = %v", err)
	}
}

// TestUnitIDContentAddress pins that a unit's identity binds the spec and
// the range: change either and the address changes.
func TestUnitIDContentAddress(t *testing.T) {
	spec := Spec{App: "mcf", Scheme: "ppa", Insts: 500, Points: 50, Seed: 1, MinCycle: 200, MaxCycle: 1500, UnitSize: 10}
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 5 {
		t.Fatalf("%d units, want 5", len(units))
	}
	seen := map[string]bool{}
	for _, u := range units {
		if seen[u.ID] {
			t.Fatalf("duplicate unit id %s", u.ID)
		}
		seen[u.ID] = true
		if got := UnitID(spec.Hash(), u.Range); got != u.ID {
			t.Fatalf("unit %d id not reproducible: %s vs %s", u.Index, u.ID, got)
		}
	}
	other := spec
	other.Seed = 2
	otherUnits, err := other.Units()
	if err != nil {
		t.Fatal(err)
	}
	if otherUnits[0].ID == units[0].ID {
		t.Fatal("different specs produced the same unit id")
	}
	if reflect.DeepEqual(spec.Hash(), other.Hash()) {
		t.Fatal("different specs produced the same spec hash")
	}
}

// TestSpecValidate pins fail-fast rejection of un-runnable specs.
func TestSpecValidate(t *testing.T) {
	good := Spec{App: "mcf", Scheme: "ppa", Insts: 500, Points: 10, Seed: 1, MinCycle: 200, MaxCycle: 1500, UnitSize: 5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, bad := range map[string]Spec{
		"no points":  {App: "mcf", Scheme: "ppa", Insts: 500, MinCycle: 1, MaxCycle: 2},
		"no insts":   {App: "mcf", Scheme: "ppa", Points: 10, MinCycle: 1, MaxCycle: 2},
		"bad cycles": {App: "mcf", Scheme: "ppa", Insts: 500, Points: 10, MinCycle: 5, MaxCycle: 5},
		"bad app":    {App: "nope", Scheme: "ppa", Insts: 500, Points: 10, MinCycle: 1, MaxCycle: 2},
		"bad scheme": {App: "mcf", Scheme: "nope", Insts: 500, Points: 10, MinCycle: 1, MaxCycle: 2},
		"bad kind":   {App: "mcf", Scheme: "ppa", Insts: 500, Points: 10, MinCycle: 1, MaxCycle: 2, Kind: "gremlins"},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
