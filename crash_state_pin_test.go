package ppa

import (
	"testing"

	"ppa/internal/multicore"
	"ppa/internal/persist"
)

// crashStateDigests pins, per machine, the crash state each point of a
// 30-point sweep leaves: the clock at the cut, the dump and flush sizes,
// each core's recovery outcome and the image recovery left. Verdicts can
// agree on machines that stepped differently; these figures move with
// every cycle. Regenerate only for an intended behaviour change: run the
// test with -v and copy the printed digests.
var crashStateDigests = map[string]string{
	"mcf/baseline":             "05cafa33721b42f703fce35c48aa03cbfe5e3b8a12a1a1f60afbf8945f90a00f",
	"mcf/ppa":                  "00f9332522b693c66266336b9f67eb9f57ec2521648f21110b3aaf23678bc914",
	"mcf/replaycache":          "9b8b62e5c48ec1ffce6294ef5aab9932b830550fefe190e116ca9020fb21751d",
	"mcf/capri":                "9295338266db83e26d8d2c9dd0793034dbbdd60865dea90a7727c86edc17b6f8",
	"mcf/eadr":                 "12253882f60ad917a7b66127e769ddd9698b90f5389cc2a483136bf537cd9679",
	"mcf/dram-only":            "778f2edbcf8ba53b77bb94764e742c21fc6790b986d43df32474abc7d14a0fde",
	"mcf/sb-gate":              "a4c9780e3dcad00014520b2885abf7f6b309677c76ad667a72963e155446e2ed",
	"mcf/undolog":              "3a826a6b58316f4773adac63c4115522df70215fc6549558d900a1d29ce010a1",
	"mcf/redotxn":              "2874825cf0111baf0f42c70f93c7358ff0e1792cc741fd938984a79a6b98de5f",
	"mcf/htpm":                 "acefe548440cc12d457b1c0285a278e807d8da182320383008b5fb23bc41917f",
	"gcc/ppa/l3":               "12d21b4f5b9a79ff9b138e62bc713e5dc6cb5defb522c0b9c693116649601466",
	"water-ns/ppa/l3":          "386d7c46ca43e3ae4ac0c255b77049f6c47d3a8aecfc7019dfdb2687d2fec4da",
	"mcf/sb-gate/wb2":          "7b0ac1d2893f9ad6ebd5f0d4b6f04f40f3a2b8e067c40650a79634c56f656128",
	"mcf/inorder-ppa":          "b0da5c33f1aa356fb754751afe7e98d74354a6cec7cc839ad6df77dfddb9a31e",
	"mcf/inorder-ppa/wb2":      "68f6f87022e6a518d333a72c490381ebcdb3a719794945d8e42c2f6f7ffdf337",
	"mcf/inorder-baseline":     "9ae0ff649f21e85c921473f2d6685de3c14ebcf5bb3ddaa583b8b9d98da39958",
	"water-ns/undolog/8-cores": "ff956e0155f6ba2a48f4b70fbc424d796dc8e3b596bc702ef4801a8715976dc8",
}

// TestCrashStateGoldenDigests runs TorturePoints(11, 30, 200, 8000) in
// sweep order on one crash driver per machine — every scheme on mcf, the
// organization goldens (in-order cores included) and 8-thread water-ns
// under undolog, at 2000 instructions per thread with lockstep wherever the
// scheme has a recovery contract — and pins the crash state of every point.
func TestCrashStateGoldenDigests(t *testing.T) {
	points := TorturePoints(11, 30, 200, 8000)
	type pinCase struct {
		name string
		rc   RunConfig
	}
	var cases []pinCase
	for _, s := range Schemes() {
		cases = append(cases, pinCase{"mcf/" + string(s), RunConfig{App: "mcf", Scheme: s}})
	}
	for _, run := range goldenOrgRuns {
		rc := run.rc
		rc.Customize = run.org
		cases = append(cases, pinCase{run.name, rc})
	}
	cases = append(cases, pinCase{"water-ns/undolog/8-cores", RunConfig{App: "water-ns", Scheme: SchemeUndoLog}})
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			rc := c.rc
			cfg, err := SchemeConfig(rc.Scheme)
			if err != nil {
				t.Fatal(err)
			}
			rc.InstsPerThread = 2000
			rc.Lockstep = persist.SchemeFor(cfg).Contract() != persist.RecoverNone
			got := jsonDigest(t, crashStates(t, rc, points))
			t.Logf("%q: %q,", c.name, got)
			if want := crashStateDigests[c.name]; got != want {
				t.Errorf("%s crash-state digest %s, golden %s", c.name, got, want)
			}
		})
	}
}

// crashStates runs points in sweep order on one crash driver over one
// workload and returns each point's crash state as a digest: the clock at
// the cut, the dump and flush sizes, each core's recovery outcome and the
// image of the machine the verdict describes.
func crashStates(t *testing.T, rc RunConfig, points []TorturePoint) []string {
	t.Helper()
	_, w, err := assemble(rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &crashRun{rc: rc, w: w}
	var states []string
	for _, p := range points {
		v, err := r.cut(p, false)
		if v == nil {
			t.Fatalf("point %v: %v", p, err)
		}
		states = append(states, jsonDigest(t, []any{v.cycle, v.checkpointBytes, v.flushedBytes, v.perCore,
			cutMachine(r, v).Device().Image().Snapshot()}))
	}
	return states
}

// cutMachine is the machine whose state v describes: the live machine for
// a point that completed or diverged before its cut, else the crashed copy.
func cutMachine(r *crashRun, v *crashVerdict) *multicore.System {
	if v.completed || r.halt != nil {
		return r.sys
	}
	return r.down
}
