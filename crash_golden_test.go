package ppa

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// The crash paths' golden digests: SHA-256 of the JSON verdicts that the
// torture sweep and the single-failure runner produce for a fixed workload,
// per scheme. They pin the crash → recover → verify → resume protocol
// byte-for-byte, so a refactor of the crash driver that changes any
// verdict, counter, recovery outcome or resumed Result shows up here.
// Regenerate only for an intended behaviour change: run the test with -v
// and copy the printed digests.

const goldenCrashInsts = 2000

// goldenFailCycles are the RunWithFailure cut points: early, middle and
// late in an mcf run of goldenCrashInsts (about 12k-30k cycles per scheme).
var goldenFailCycles = []uint64{1_500, 4_000, 9_000}

var goldenTortureDigests = map[Scheme]string{
	SchemeBaseline:    "14f249ad90f023c9ddbc13bb65c17022ea3bb9ba7a95081aaa92a0710690cec9",
	SchemePPA:         "0d331f1217fd9fd76306d3be0f052ed5fbfbd2925b36b51df8cc3db0a2806812",
	SchemeReplayCache: "f76a205047d049376c3a51679f6dc43cd630eca89e5ea2916be33de1edb077ac",
	SchemeCapri:       "77f895841b7ef349e83abd2118b50f00cd922732991a9b37930b4500e8926a89",
	SchemeEADR:        "fe189dd1005b31607c2ddda468dfc8d3d98b944bcdbd50f34c74e37aa76efb37",
	SchemeDRAMOnly:    "5c3de87c9b60032375e16d20dd80a62511153e4aa5fc9426f587df3942949163",
	SchemeSBGate:      "dfd06fd56a3803e774142ed0ea3e88a55183432ba3fcb93d6cbc49b3cd7fcad8",
	SchemeUndoLog:     "c56534a0e08cabf799fea960023f8f2c485ef6bc83a3677ac21f4323a3afd344",
	SchemeRedoTxn:     "a2fb3137c16e6f75eb20bcdb31b77ce69c204ab93184e3fec208c69880ed6d59",
	SchemeHTPM:        "5c790bab61e9f753362f8d62f7d79f2af0a671b12bb308368ac26fb9e655609c",
}

var goldenFailureDigests = map[Scheme]string{
	SchemeBaseline:    "a34cbd8cc9215d40163cca3a402d6e4984b06afc07e6475b11aadaa031afa048",
	SchemePPA:         "4fc2a02e698f89d2a930be61bc0a614125696e5496d40fcb4661b4afa0b348d0",
	SchemeReplayCache: "5ae1a5c272b8fa5f0b20d7512adc5829875c92c918b25663180310dd4faaf230",
	SchemeCapri:       "4c07ecf4f2c2be67a25157bac56079b315f0c2c69154b77bf79bc780df96f054",
	SchemeEADR:        "c4bd2089a9b8b96fa30ab5eaf31977b8e581911a51e1b87d918ec5bc752c667e",
	SchemeDRAMOnly:    "afe1c42da5bc3e7a4220cf58778396cb7e8c540850d7158bfdf01366ed857c6b",
	SchemeSBGate:      "fc88d024824a1683115b0f22b555190b42b952c92b4479f1b3e7ce38c5c22715",
	SchemeUndoLog:     "8982f431ea57ae3bee9f579eaa23082b09565b5dfe3ca0255c5a6f4b685c9c91",
	SchemeRedoTxn:     "49a477906304f4861dc4a16062a2aceff6823a9b382b78c48b6236429f631df1",
	SchemeHTPM:        "46b8c4b6b156935067c9a5c34bc5d303fe579111fb86dc92e41e5917d0415624",
}

func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestCrashPathGoldenDigests(t *testing.T) {
	for _, s := range Schemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			rc := RunConfig{App: "mcf", Scheme: s, InstsPerThread: goldenCrashInsts, Lockstep: true}

			// The report alone is blind to passing points' details, so
			// every per-point verdict is pinned alongside it.
			var verdicts []*CrashVerdict
			rep, err := RunTorture(rc, TorturePoints(1, 40, 200, 8000), func(o *CrashVerdict) {
				verdicts = append(verdicts, o)
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := jsonDigest(t, []any{rep, verdicts}), goldenTortureDigests[s]; got != want {
				t.Errorf("%s torture digest %s, golden %s", s, got, want)
			}

			var outs []*CrashVerdict
			for _, c := range goldenFailCycles {
				out, err := RunWithFailure(rc, c)
				if err != nil {
					t.Fatalf("fail at %d: %v", c, err)
				}
				if out.Resumed == nil {
					t.Fatalf("fail at %d: no resumed run", c)
				}
				outs = append(outs, out)
			}
			if got, want := jsonDigest(t, outs), goldenFailureDigests[s]; got != want {
				t.Errorf("%s failure digest %s, golden %s", s, got, want)
			}
		})
	}
}
