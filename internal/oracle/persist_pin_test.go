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
			m.CheckRecovered(bothWrong, []int{2}, 40)
			return m
		}, "9ee257e94253532bfddf35699a9f50695715c613a9c53ae098e646b7f13a2fbd",
			"fd1d36e4fe2ae44fda7607e0a6a7557747f44f4f28328f859f3128984b03db93"},
		{"recovered-count-mismatch-at", "recovered-count-mismatch", func(t *testing.T) *Machine {
			m := pinMachine(t, 2)
			m.CheckRecoveredAt(bothWrong, []int{3}, 40)
			return m
		}, "594a60a3b71a80dfef57a4f2727e85085f6b10ae6053a9958c4137adc2cd2494",
			"8f2a1cd62b3ad2a406e22db69b9ce4edf356e7c15658f83968423eb5ff3d2116"},
		{"recovered-image-mismatch", "recovered-image-mismatch", func(t *testing.T) *Machine {
			m := pinMachine(t, -1)
			m.ObserveCrash()
			m.CheckRecovered(bothWrong, []int{4}, 40)
			return m
		}, "32a189ef0edd00a5eabf24102e8bb2a87b206388aba23ae3d3463fce4a32286e",
			"eee71e802a37852267ac0bb369b0a7a3ee90c3458c61d80bc168ebaf9f4ef561"},
		{"recovered-image-mismatch-at", "recovered-image-mismatch", func(t *testing.T) *Machine {
			m := pinMachine(t, -1)
			m.ObserveCrash()
			m.CheckRecoveredAt(bothWrong, []int{4}, 40)
			return m
		}, "0332ca7f5b000f9fa17ab6c4ec64d4cc27b2408a503028b136a906d8b9b10016",
			"3d44c2f956c523524a098efb3cf19322004388e7d2be248b20f7d2c709be6fef"},
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

// TestRecoveredImageReportsLowestAddress: the recovered-image checks walk
// the golden memory in map order, not sorted, so they must still report
// the lowest wrong address when the wrong words span many lines stored in
// descending order.
func TestRecoveredImageReportsLowestAddress(t *testing.T) {
	p := descendingStores(40)
	lowest := uint64(0x4000 - 0x48*39)
	img := memImage{} // every stored word reads zero
	fed := func() *Machine {
		m := New([]*isa.Program{p}, nil)
		feed(m, goldenEvents(p))
		m.ObserveCrash()
		return m
	}
	all := []int{p.Len()}
	for run := 0; run < 20; run++ {
		for name, err := range map[string]error{
			"CheckRecovered":   fed().CheckRecovered(img, all, 40),
			"CheckRecoveredAt": fed().CheckRecoveredAt(img, all, 40),
		} {
			var de *DivergenceError
			if !asDivergence(err, &de) || de.Report.PersistViolation == nil {
				t.Fatalf("%s: %v, want a recovered-image mismatch", name, err)
			}
			if v := de.Report.PersistViolation; v.Kind != "recovered-image-mismatch" || v.Addr != lowest {
				t.Fatalf("%s: %s at %#x, want recovered-image-mismatch at %#x", name, v.Kind, v.Addr, lowest)
			}
		}
	}
}

// descendingStores is a program of n stores, each of a value of its own to
// a line of its own, the lines in descending address order.
func descendingStores(n int) *isa.Program {
	p := &isa.Program{Name: "descending-stores"}
	for i := 0; i < n; i++ {
		addr := uint64(0x4000 - 0x48*i)
		p.Insts = append(p.Insts,
			isa.Inst{PC: uint64(8 * i), Op: isa.OpALU, Dst: isa.Int(1), Imm: int64(i + 1)},
			isa.Inst{PC: uint64(8*i + 4), Op: isa.OpStore, Src1: isa.Int(1), Addr: addr})
	}
	return p
}

// TestCheckRecoveredAtFollowsPointsBackwards: one oracle checks recovery
// points forward, repeated, behind the last and after a Reset to another
// program, each against the image isa.RunGolden leaves at that point. Its
// own golden execution must rerun for a point behind it and for the other
// program, so every check passes; a point one store ahead of the image
// then fails at that store's word.
func TestCheckRecoveredAtFollowsPointsBackwards(t *testing.T) {
	p, q := descendingStores(30), descendingStores(20)
	q.Name, q.Insts[0].Imm = "other-program", 100
	m := New([]*isa.Program{p}, nil)
	run := func(prog *isa.Program, points ...int) {
		t.Helper()
		feed(m, goldenEvents(prog))
		m.ObserveCrash()
		for _, point := range points {
			img := isa.RunGolden(prog, point).Mem
			if err := m.CheckRecoveredAt(img, []int{point}, 40); err != nil {
				t.Fatalf("%s point %d: %v", prog.Name, point, err)
			}
		}
	}
	run(p, 20, 20, 44, 8, 0, 60, 31)
	m.Reset([]*isa.Program{q}, nil)
	run(q, 40, 12)

	err := m.CheckRecoveredAt(isa.RunGolden(q, 12).Mem, []int{14}, 40)
	var de *DivergenceError
	if !asDivergence(err, &de) || de.Report.PersistViolation == nil {
		t.Fatalf("point ahead of the image: %v, want a recovered-image mismatch", err)
	}
	if v := de.Report.PersistViolation; v.Kind != "recovered-image-mismatch" || v.Addr != 0x4000-0x48*6 || v.Want != 7 || v.Got != 0 {
		t.Fatalf("point ahead of the image: %s at %#x (got %d, want %d), want recovered-image-mismatch at %#x", v.Kind, v.Addr, v.Got, v.Want, 0x4000-0x48*6)
	}
}
