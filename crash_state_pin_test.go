package ppa

import (
	"crypto/sha256"
	"encoding/hex"
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
	for _, c := range crashPinCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got := jsonDigest(t, crashStates(t, c.rc, points))
			t.Logf("%q: %q,", c.name, got)
			if want := crashStateDigests[c.name]; got != want {
				t.Errorf("%s crash-state digest %s, golden %s", c.name, got, want)
			}
		})
	}
}

// crashPinCase is one machine the crash pins sweep.
type crashPinCase struct {
	name string
	rc   RunConfig
}

// crashPinCases are the machines of the crash pins: every scheme on mcf,
// the organization goldens and 8-thread water-ns under undolog, at 2000
// instructions per thread, lockstep wherever the scheme has a recovery
// contract.
func crashPinCases(t *testing.T) []crashPinCase {
	t.Helper()
	var cases []crashPinCase
	for _, s := range Schemes() {
		cases = append(cases, crashPinCase{"mcf/" + string(s), RunConfig{App: "mcf", Scheme: s}})
	}
	for _, run := range goldenOrgRuns {
		rc := run.rc
		rc.Customize = run.org
		cases = append(cases, crashPinCase{run.name, rc})
	}
	cases = append(cases, crashPinCase{"water-ns/undolog/8-cores", RunConfig{App: "water-ns", Scheme: SchemeUndoLog}})
	for i := range cases {
		rc := &cases[i].rc
		cfg, err := SchemeConfig(rc.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		rc.InstsPerThread = 2000
		rc.Lockstep = persist.SchemeFor(cfg).Contract() != persist.RecoverNone
	}
	return cases
}

// crashDumpDigests pins, per machine, the bytes of the checkpoint area each
// point of the crash-state sweep writes, before any fault damages them.
// The crash-state pin sees only the dump's size; this one moves when a
// register, a CSQ entry or a section of any image moves. Regenerate only
// for an intended change to the dump: run the test with -v and copy the
// printed digests.
var crashDumpDigests = map[string]string{
	"mcf/baseline":             "0082704717cc3b7e161c0e03023dd931cf38a8d5fb4fb0f7c8eef4746e2d8cf6",
	"mcf/ppa":                  "dd3a26756c54ba499c92415e6899c640046b25383fc2f0e42041aa54946b425a",
	"mcf/replaycache":          "2a55d42d3cc2adc494227e719429d10de2be908c854f79122a6ace7e288c9ca7",
	"mcf/capri":                "1938835cd4eb77b37129096511c159966fabcc880db694acf4d7c66269548182",
	"mcf/eadr":                 "398a7674e4ecd78ae639e63ea6cffdf4a087b23e48c87d972fcdf72d97e4f2b9",
	"mcf/dram-only":            "cb2deea205c44dc83cc52a294a78852d1213dfe7608f12bafcca7adf8aeec518",
	"mcf/sb-gate":              "be7f3b5d86313dc70e2cfac7e2c92aadc732b30e1156ed76bb6520b2d8b3ec26",
	"mcf/undolog":              "5fe48908010dd226d7ee1011649f85c8fa5fcc50bff65a9536e7d149f7612ea4",
	"mcf/redotxn":              "151b58209fc8da1c2f6799291af9b7ef554e77e22f315f92201fe7fe1e7eeb37",
	"mcf/htpm":                 "1cf82e03414e3e415870e406425a2cf167a0d44a207d58fcd33607a33c120165",
	"gcc/ppa/l3":               "571ba7341128d48af218c0d67ede4e8308e0d625efd720a552ae5a7d154a9f5a",
	"water-ns/ppa/l3":          "2b854a34dae136443759ea5a21e03c3b984af784630f7f6c3114c6bf98194e4f",
	"mcf/sb-gate/wb2":          "bcda720756ec939df56dae62606573d836207be3119712b43a141621653cca9d",
	"mcf/inorder-ppa":          "40f982294de941964fbeb490459c761c1c8596c451f644ef2b907f745c167f39",
	"mcf/inorder-ppa/wb2":      "308fcd30d8cf189ecb9c2672ae12444803f7b05584c2903f001685d4538ff01b",
	"mcf/inorder-baseline":     "260d7370dd9379b6b832560ed0ba145624c60750291e999eb6cf7e6e93fb4996",
	"water-ns/undolog/8-cores": "2ba69a490ca5d107525fe222f24ffbb6471f1c785a284bd40fc326ea7f0ff685",
}

// TestCrashDumpGoldenDigests runs the crash-state pin's machines and points
// and pins the SHA-256 of every point's checkpoint area as its outage
// writes it: torn for a TornCheckpoint point, whole otherwise.
func TestCrashDumpGoldenDigests(t *testing.T) {
	points := TorturePoints(11, 30, 200, 8000)
	for _, c := range crashPinCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got := jsonDigest(t, crashDumps(t, c.rc, points))
			t.Logf("%q: %q,", c.name, got)
			if want := crashDumpDigests[c.name]; got != want {
				t.Errorf("%s dump digest %s, golden %s", c.name, got, want)
			}
		})
	}
}

// crashDumps steps one live machine over rc's workload through points in
// sweep order, as a crash driver does, and at each cut crash-copies it with
// the point's reservoir. It returns the SHA-256 of each checkpoint area the
// outage wrote, or "completed" for a point past the end of the run.
func crashDumps(t *testing.T, rc RunConfig, points []TorturePoint) []string {
	t.Helper()
	live, down, w := buildPair(t, rc)
	var sums []string
	for _, p := range points {
		if live.Cycle() > p.Cycle {
			if err := live.Reset(w, live.Config().StepSeed); err != nil {
				t.Fatal(err)
			}
		}
		done, err := live.RunUntil(p.Cycle)
		if err != nil {
			t.Fatalf("point %v: %v", p, err)
		}
		if done {
			sums = append(sums, "completed")
			continue
		}
		if _, err := down.CrashCopy(live, crashOptions(p)); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(down.Device().ReadCheckpoint())
		sums = append(sums, hex.EncodeToString(sum[:]))
	}
	return sums
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
