package oracle

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/pipeline"
)

// twoWordProg stores 7 to 0x108 and then 9 to 0x100: the higher word
// commits first, so every lowest-address-first walk has a choice to make.
func twoWordProg() *isa.Program {
	return &isa.Program{Name: "persist-pin", Insts: []isa.Inst{
		{PC: 0x00, Op: isa.OpALU, Dst: isa.Int(1), Imm: 7},
		{PC: 0x04, Op: isa.OpStore, Src1: isa.Int(1), Addr: 0x108},
		{PC: 0x08, Op: isa.OpALU, Dst: isa.Int(2), Imm: 9},
		{PC: 0x0c, Op: isa.OpStore, Src1: isa.Int(2), Addr: 0x100},
	}}
}

// pinMachine feeds the first n golden commits of twoWordProg (all of them
// for n < 0).
func pinMachine(t *testing.T, n int) *Machine {
	t.Helper()
	p := twoWordProg()
	evs := goldenEvents(p)
	if n >= 0 {
		evs = evs[:n]
	}
	m := New([]*isa.Program{p}, nil)
	feed(m, evs)
	if err := m.Err(); err != nil {
		t.Fatalf("setup stream diverged: %v", err)
	}
	return m
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestPersistViolationReportDigests pins every persist-violation kind the
// oracle raises, byte for byte: the SHA-256 of the report's JSON and of the
// error string. Each scenario that walks addresses leaves more than one word
// wrong, so the pin also holds each walk to reporting the lowest address
// first.
func TestPersistViolationReportDigests(t *testing.T) {
	bothWrong := memImage{0x100: 1, 0x108: 2}
	cases := []struct {
		name, kind     string
		run            func(t *testing.T) *Machine
		report, errStr string
	}{
		{"barrier-incomplete", "barrier-incomplete", func(t *testing.T) *Machine {
			m := pinMachine(t, -1)
			m.ObserveBarrierArm(0, 10)
			m.ObserveBarrierComplete(0, 20, pipeline.BoundarySync)
			return m
		}, "5ab6bb513dce094c95590b8f0fade8c5cef1c2e89743ed623d04b178f4b0f9e4",
			"2d57dbb830de0f82dca5ce8181f43aa4de8678727f8d79f9f38a448f43689dd9"},
		{"durable-image-mismatch", "durable-image-mismatch", func(t *testing.T) *Machine {
			m := pinMachine(t, -1)
			var lw isa.LineWords
			lw.Set(0x100, 9)
			lw.Set(0x108, 7)
			m.ObserveAccept(30, 0x100, &lw)
			m.CheckFinal(bothWrong)
			return m
		}, "54a951a9de31aade20cf342bcf714e5191965ed1eb35817bf35a7c1a21b08fec",
			"98e3250f25d09de44646a0bd6cc1b7b930394ef6c9c8a75bb374778f968c8bd5"},
		{"recovered-count-mismatch", "recovered-count-mismatch", func(t *testing.T) *Machine {
			m := pinMachine(t, -1)
			m.CheckRecovered(bothWrong, []int{2})
			return m
		}, "0dbe1360a451072bdb10c371f624ebf392d610a2efdc881486264e9c2e511cd8",
			"665095ede55a86ad81654ec3ff0ebcb0a3873b6cc128277d21f4d65f51658ba5"},
		{"recovered-count-mismatch-at", "recovered-count-mismatch", func(t *testing.T) *Machine {
			m := pinMachine(t, 2)
			m.CheckRecoveredAt(bothWrong, []int{3})
			return m
		}, "79d6be3dcbae3414986103b3257d9ae7ae727f840acfc3891690c8421b1ea619",
			"7a4957ec3a7a7711bce69821ea8ba8cccc389915b3a7271f4b1d9cf3664fc349"},
		{"recovered-image-mismatch", "recovered-image-mismatch", func(t *testing.T) *Machine {
			m := pinMachine(t, -1)
			m.ObserveCrash()
			m.CheckRecovered(bothWrong, []int{4})
			return m
		}, "efb692ef92832ecca0960853ef9aedc881049c6173a427176d6985878c201553",
			"f4156b9baad147a02448cf551b43b4e8781312ce9a408b353feeb9dc6b3046f4"},
		{"recovered-image-mismatch-at", "recovered-image-mismatch", func(t *testing.T) *Machine {
			m := pinMachine(t, -1)
			m.ObserveCrash()
			m.CheckRecoveredAt(bothWrong, []int{4})
			return m
		}, "1d0878ab265f0b480d040377d0e1048efe039b0fd2b76bcccd6d48bd9f7b3bb3",
			"351dcd62855ae3656027e435fc20ac6f2f2e31f530687e8737c558b418ecc345"},
		{"log-marker-mismatch", "log-marker-mismatch", func(t *testing.T) *Machine {
			m := pinMachine(t, 2)
			m.ObserveLogAppend(0, nvm.LogRecord{Marker: true, Committed: 4}, true)
			return m
		}, "c6e6fddc766b9cf48bd4d7534472c62249dfc54600cc73317aaf3659b0e23eb0",
			"2c090e24890ef258ea47b01abb10763858a403326a8c351fed225d1300da430d"},
		{"log-preimage-mismatch", "log-preimage-mismatch", func(t *testing.T) *Machine {
			m := pinMachine(t, 2)
			m.ObserveLogAppend(0, nvm.LogRecord{Addr: 0x108, Val: 3}, true)
			return m
		}, "3b60fa9261657ba545dd8005550e5b5ffd205dc3dc0d804087f975414745c421",
			"96ca1fa98e83b0b21f30387c51f5351736f662621a3137766a84b3260a49ad56"},
		{"log-redo-mismatch", "log-redo-mismatch", func(t *testing.T) *Machine {
			m := pinMachine(t, -1)
			m.ObserveLogAppend(0, nvm.LogRecord{Addr: 0x108, Val: 1}, false)
			m.ObserveLogAppend(0, nvm.LogRecord{Addr: 0x100, Val: 2}, false)
			m.ObserveLogAppend(0, nvm.LogRecord{Marker: true, Committed: 4}, false)
			return m
		}, "7137ed19ef6a1f217afcb4cc657d80fb1ff87fd429d8a38476488471c7c4d731",
			"a31acc32c828843851a392057f08f388fc783c09b7464eb299032de996d2dda0"},
		{"log-core-mismatch", "log-core-mismatch", func(t *testing.T) *Machine {
			m := pinMachine(t, 2)
			m.ObserveLogAppend(3, nvm.LogRecord{Addr: 0x100, Val: 9}, false)
			return m
		}, "cefd41fe8e112f247b60ca616db0dcf4ff29452bf3c7e597fb9202f8ff6caeca",
			"345c1fec643e82d117200125a3d4febca182efa592d123c56f542e6475916753"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.run(t)
			err := m.Err()
			var de *DivergenceError
			if !asDivergence(err, &de) || de.Report.PersistViolation == nil {
				t.Fatalf("no persist violation latched: %v", err)
			}
			if k := de.Report.PersistViolation.Kind; k != c.kind {
				t.Fatalf("kind %s, want %s", k, c.kind)
			}
			js, jerr := json.Marshal(m.Report())
			if jerr != nil {
				t.Fatal(jerr)
			}
			if got := sha(js); got != c.report {
				t.Errorf("report digest %s, want %s\n%s", got, c.report, js)
			}
			if got := sha([]byte(err.Error())); got != c.errStr {
				t.Errorf("error digest %s, want %s\n%s", got, c.errStr, err.Error())
			}
		})
	}
	t.Run("clean-counters", pinCleanCounters)
}

// pinCleanCounters pins a clean run's accept-stream counters: an idempotent
// re-accept, an unmatched eviction writeback and two drained barriers.
func pinCleanCounters(t *testing.T) {
	p := twoWordProg()
	evs := goldenEvents(p)
	m := New([]*isa.Program{p}, nil)
	feed(m, evs[:2])
	m.ObserveBarrierArm(0, 5)
	var lw isa.LineWords
	lw.Set(0x108, 7)
	lw.Set(0x110, 4)
	m.ObserveAccept(6, 0x100, &lw)
	m.ObserveBarrierComplete(0, 7, pipeline.BoundaryPRF)
	feed(m, evs[2:])
	m.ObserveBarrierArm(0, 8)
	lw = isa.LineWords{}
	lw.Set(0x100, 9)
	lw.Set(0x108, 7)
	m.ObserveAccept(9, 0x100, &lw)
	m.ObserveBarrierComplete(0, 10, pipeline.BoundarySync)
	if err := m.Err(); err != nil {
		t.Fatalf("clean run latched: %v", err)
	}
	js, err := json.Marshal(m.Report())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"commits":4,"accepted_words":4,"barriers":2,"unmatched_accepts":1}`
	if string(js) != want {
		t.Fatalf("report %s, want %s", js, want)
	}
}
