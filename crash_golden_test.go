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
	SchemeBaseline:    "0e78032845a2a2727088e9dde25de825bdf1e6b739191860debd17d4c67d2cb6",
	SchemePPA:         "b6228ac07a7e1c48a8983604af864b9167806d1919924d507a63aafd8db4d093",
	SchemeReplayCache: "41bfa7a12207c9052dc4a5d3d80016362e2e07e0e198b93e25299311cd767133",
	SchemeCapri:       "e4e5c7564f8a19db0d622e092cd32cb24018966d91b119b94a5961ccc156983b",
	SchemeEADR:        "35f1bbff31cca2d43d4392728b521c3ee7d76c92e7eb2d1fd5ab1207c98719ef",
	SchemeDRAMOnly:    "68af46d594813b23e6660b853111c5acec926b60ed8f8ea6f4337d6d20909df7",
	SchemeSBGate:      "caa5bc76d0660cccb29aa09128578fa0cae49202a529e1039b4450324f9a521d",
	SchemeUndoLog:     "91daef190597903b50e470c56c702170204e8d263e1080dfefbef56a9da62a3b",
	SchemeRedoTxn:     "5bcd144bfeaebbb992ebf37e3d55a7f3236b3ddbd1010458b2517b7a25ff5606",
	SchemeHTPM:        "aad8ab5a507c4919459d4168e2d563e4052db25561c6e6ba2e63640698224496",
}

var goldenFailureDigests = map[Scheme]string{
	SchemeBaseline:    "96543f01a5487896be03f071631747fffa05530bd37112844ad5ecc0927abd1c",
	SchemePPA:         "16dbcc8ee448c8dbd41d23e11034d4d907ae6f49ca131600eeab2d0cb37e7214",
	SchemeReplayCache: "32354953d5c9154ae45f140102fcf2a54bd42da024dd3ecf7a6c118e7829bd2b",
	SchemeCapri:       "539cc6adcac0f117cc8ff55d66b8fd8885876df471fc5df5bd4b09b574997f02",
	SchemeEADR:        "ae3102ca220bfe8f8cc9836ba950ad0209970ac4cb529063becaab6b07c3ef8e",
	SchemeDRAMOnly:    "8b19f5096ee039b79f2f8659b7044b51d8109d7135f838c50f995475991416de",
	SchemeSBGate:      "fcb5e3f22c7b0340226a5a39effba399abc669a5c6d0593c459e8fc4ef3315fa",
	SchemeUndoLog:     "dc17dc5a599fe9ea1bb2bb904fe5fec6c519731155872c6abab7d86be8ea582d",
	SchemeRedoTxn:     "e81310dd568fd305dbc6855d9aae2534d31384723ec81167aa60709fd0d8e2be",
	SchemeHTPM:        "cb3be80e1962f39aa98ad58f9569fb7480dadc527da0b279098566a9b8765e54",
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
			var verdicts []*TortureOutcome
			rep, err := RunTorture(rc, TorturePoints(1, 40, 200, 8000), func(o *TortureOutcome) {
				verdicts = append(verdicts, o)
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := jsonDigest(t, []any{rep, verdicts}), goldenTortureDigests[s]; got != want {
				t.Errorf("%s torture digest %s, golden %s", s, got, want)
			}

			var outs []*FailureOutcome
			for _, c := range goldenFailCycles {
				out, err := RunWithFailure(rc, c)
				if err != nil {
					t.Fatalf("fail at %d: %v", c, err)
				}
				if out.ResumedResult == nil {
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
