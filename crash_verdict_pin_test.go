package ppa

import "testing"

// crashVerdictDigests pins, per machine, what verify concludes at each
// point of the crash-state sweep: the words recovery lost against the
// contract point's golden memory, whether the register state and the
// oracle agreed, and the violation reported. The sweep's cuts go back and
// forth in time, so a golden model that is not rerun for a point behind it
// moves these figures. Regenerate only for an intended change to a
// verdict: run the test with -v and copy the printed digests.
var crashVerdictDigests = map[string]string{
	"mcf/baseline":             "0ada2b36c0a931d048b80a59cb1d7dd14b69f0cf209322b4e57b7265cf9422cf",
	"mcf/ppa":                  "3a66783870783dbbbe9edeafeb49dc9cc8b455bb88af3e5e0fcdb5d786230614",
	"mcf/replaycache":          "db244bec77af82abb4de4d22f5812bf9960288a2ca53671d9f07ca5636958c73",
	"mcf/capri":                "3a66783870783dbbbe9edeafeb49dc9cc8b455bb88af3e5e0fcdb5d786230614",
	"mcf/eadr":                 "3a66783870783dbbbe9edeafeb49dc9cc8b455bb88af3e5e0fcdb5d786230614",
	"mcf/dram-only":            "e9296f84e4e35824f0155f0dac42deb05196cb694c69af2197f2558c2c830c00",
	"mcf/sb-gate":              "3a66783870783dbbbe9edeafeb49dc9cc8b455bb88af3e5e0fcdb5d786230614",
	"mcf/undolog":              "3a66783870783dbbbe9edeafeb49dc9cc8b455bb88af3e5e0fcdb5d786230614",
	"mcf/redotxn":              "3a66783870783dbbbe9edeafeb49dc9cc8b455bb88af3e5e0fcdb5d786230614",
	"mcf/htpm":                 "3a66783870783dbbbe9edeafeb49dc9cc8b455bb88af3e5e0fcdb5d786230614",
	"gcc/ppa/l3":               "a465b16f5403cd78d9a895cddbd39ef25e316b30fa3d96fb9608683bd01f5652",
	"water-ns/ppa/l3":          "b66945687ac0d83a27631118cdce9ce4d29a3b71225a8b7ea4829a01a427e419",
	"mcf/sb-gate/wb2":          "3a66783870783dbbbe9edeafeb49dc9cc8b455bb88af3e5e0fcdb5d786230614",
	"mcf/inorder-ppa":          "3a66783870783dbbbe9edeafeb49dc9cc8b455bb88af3e5e0fcdb5d786230614",
	"mcf/inorder-ppa/wb2":      "3a66783870783dbbbe9edeafeb49dc9cc8b455bb88af3e5e0fcdb5d786230614",
	"mcf/inorder-baseline":     "460bf95d344ec85f79262c1c3ccdd6ecd3094184ffe48704de8e0773a09568ea",
	"water-ns/undolog/8-cores": "2261af49c6c3d632de1206fc55116b28bfd10eba8479bc5001cfde9918288cd0",
}

// TestCrashVerdictGoldenDigests runs the crash-state pin's machines and
// points in sweep order on one crash driver per machine and pins every
// point's verdict.
func TestCrashVerdictGoldenDigests(t *testing.T) {
	points := TorturePoints(11, 30, 200, 8000)
	for _, c := range crashPinCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got := jsonDigest(t, crashVerdicts(t, c.rc, points))
			t.Logf("%q: %q,", c.name, got)
			if want := crashVerdictDigests[c.name]; got != want {
				t.Errorf("%s verdict digest %s, golden %s", c.name, got, want)
			}
		})
	}
}

// crashVerdicts runs points in sweep order on one crash driver over one
// workload and returns each point's verdict: whether the run completed
// first, the lost words, the register check, the oracle's check and its
// error, the violation and the cut's lockstep error.
func crashVerdicts(t *testing.T, rc RunConfig, points []TorturePoint) [][]any {
	t.Helper()
	_, w, err := assemble(rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &crashRun{rc: rc, w: w}
	var verdicts [][]any
	for _, p := range points {
		v, err := r.cut(p, false)
		if v == nil {
			t.Fatalf("point %v: %v", p, err)
		}
		verdicts = append(verdicts, []any{v.completed, v.inconsistencies, v.archConsistent,
			v.oracleChecked, errText(v.oracleErr), v.violation, errText(err)})
	}
	return verdicts
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
