package oracle

import (
	"strings"
	"testing"

	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/pipeline"
)

// ev is one scripted tracker event for the table-driven tests.
type ev struct {
	kind string // commit | accept | arm | complete
	core int
	seq  int
	addr uint64
	val  uint64
}

func commit(core, seq int, addr, val uint64) ev {
	return ev{kind: "commit", core: core, seq: seq, addr: addr, val: val}
}
func acceptEv(addr, val uint64) ev { return ev{kind: "accept", addr: addr, val: val} }
func arm(core int) ev              { return ev{kind: "arm", core: core} }
func complete(core int) ev         { return ev{kind: "complete", core: core} }

// persistOnly returns an oracle over cores empty programs, for driving its
// persist state directly.
func persistOnly(cores int) *Machine {
	progs := make([]*isa.Program, cores)
	for i := range progs {
		progs[i] = &isa.Program{}
	}
	return New(progs, nil)
}

// TestTrackerRules drives the oracle's persist rules through the
// persist-ordering edge cases an earlier checker regressed on: the one
// table of barrier drain, coalescing subsumption (whole and partial),
// idempotent re-accept and unmatched-accept cases.
func TestTrackerRules(t *testing.T) {
	const a, b = uint64(0x1000), uint64(0x1040)
	cases := []struct {
		name          string
		events        []ev
		wantViolation string // "" = clean; otherwise a substring of Kind/Detail
		wantUnmatched uint64
	}{
		{
			name: "in-order-drain",
			events: []ev{
				commit(0, 1, a, 10), acceptEv(a, 10),
				commit(0, 2, a, 11), acceptEv(a, 11),
				arm(0), complete(0),
			},
		},
		{
			name: "coalescing-subsumption",
			// Three same-word commits, one accept of the newest value: the
			// older stores were legally overwritten in the write buffer, so
			// the barrier must treat them as durable — flagging them lost
			// was the historical false alarm.
			events: []ev{
				commit(0, 1, a, 10), commit(0, 2, a, 11), commit(0, 3, a, 12),
				arm(0),
				acceptEv(a, 12),
				complete(0),
			},
		},
		{
			name: "idempotent-reaccept",
			// The device re-accepts the currently-durable value (eviction
			// writeback replaying the line image): never a violation, never
			// counted unmatched, and it must not re-arm outstanding state.
			events: []ev{
				commit(0, 1, a, 10), acceptEv(a, 10),
				acceptEv(a, 10),
				arm(0), complete(0),
			},
		},
		{
			name: "reelided-sync-persist",
			// Committing the already-durable value with an empty queue is
			// elided (sync-persist ablation): the barrier sees nothing
			// outstanding even though no new accept will ever arrive.
			events: []ev{
				commit(0, 1, a, 10), acceptEv(a, 10),
				commit(0, 2, a, 10),
				arm(0), complete(0),
			},
		},
		{
			name: "barrier-incomplete",
			events: []ev{
				commit(0, 1, a, 10),
				arm(0), complete(0),
			},
			wantViolation: "barrier-incomplete",
		},
		{
			name: "barrier-scoped-to-core",
			// Core 1's barrier does not wait for core 0's stores: no
			// inter-core persist edges.
			events: []ev{
				commit(0, 1, a, 10),
				arm(1), complete(1),
			},
		},
		{
			name: "barrier-ignores-post-arm-commits",
			// Stores committed after arm are outside the snapshot.
			events: []ev{
				commit(0, 1, a, 10), acceptEv(a, 10),
				arm(0),
				commit(0, 2, b, 20),
				complete(0),
			},
		},
		{
			name: "unmatched-accept-counted",
			// An accept before its store commits (the sync-persist
			// ablation's ordering) is counted, not fatal. The commit then
			// finds its value already durable, so it is never outstanding
			// and the barrier completes clean.
			events: []ev{
				acceptEv(a, 99),
				commit(0, 1, a, 99),
				arm(0), complete(0),
			},
			wantUnmatched: 1,
		},
		{
			name: "subsumption-keeps-newer-outstanding",
			// Accepting a middle value retires it and the older store; the
			// newest stays outstanding and still blocks the barrier.
			events: []ev{
				commit(0, 1, a, 10), commit(0, 2, a, 11), commit(0, 3, a, 12),
				arm(0),
				acceptEv(a, 11),
				complete(0),
			},
			wantViolation: "barrier-incomplete",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := persistOnly(2)
			for _, e := range tc.events {
				switch e.kind {
				case "commit":
					m.commitStore(e.core, e.seq, e.addr, e.val)
				case "accept":
					accept(m, 100, e.addr, e.val)
				case "arm":
					m.ObserveBarrierArm(e.core, 150)
				case "complete":
					m.ObserveBarrierComplete(e.core, 200, pipeline.BoundarySync)
				}
			}
			v := m.Report().PersistViolation
			if tc.wantViolation == "" {
				if v != nil {
					t.Fatalf("unexpected violation: %s: %s", v.Kind, v.Detail)
				}
			} else {
				if v == nil {
					t.Fatalf("expected %q violation, oracle is clean", tc.wantViolation)
				}
				if !strings.Contains(v.Kind+" "+v.Detail, tc.wantViolation) {
					t.Fatalf("violation %s (%s) does not mention %q", v.Kind, v.Detail, tc.wantViolation)
				}
			}
			if got := m.Report().UnmatchedAccepts; got != tc.wantUnmatched {
				t.Errorf("UnmatchedAccepts = %d, want %d", got, tc.wantUnmatched)
			}
		})
	}
}

// TestTrackerViolationFields pins the barrier violation's structured
// fields — the oracle report (and its String() form) depends on them.
func TestTrackerViolationFields(t *testing.T) {
	m := persistOnly(1)
	m.commitStore(0, 42, 0x2000, 7)
	m.ObserveBarrierArm(0, 500)
	m.ObserveBarrierComplete(0, 555, pipeline.BoundaryFixed)
	v := m.Report().PersistViolation
	if v == nil {
		t.Fatal("no violation")
	}
	if v.Kind != "barrier-incomplete" || v.Core != 0 || v.Cycle != 555 ||
		v.Addr != 0x2000 || v.Seq != 42 || v.Got != 7 {
		t.Fatalf("violation fields wrong: %+v", v)
	}
	if !strings.Contains(v.Detail, "fixed boundary") || !strings.Contains(v.Detail, "seq 42") {
		t.Fatalf("detail missing context: %s", v.Detail)
	}
}

// TestTrackerReset: a power failure clears outstanding and durable state,
// so post-crash accepts are judged fresh.
func TestTrackerReset(t *testing.T) {
	m := persistOnly(1)
	m.commitStore(0, 1, 0x1000, 5)
	m.ObserveBarrierArm(0, 1)
	m.ObserveCrash()
	m.ObserveBarrierComplete(0, 1, pipeline.BoundarySync)
	if v := m.Report().PersistViolation; v != nil {
		t.Fatalf("violation across reset: %+v", v)
	}
	if len(m.lastDurable) != 0 {
		t.Fatal("durable map survived reset")
	}
}

// TestOracleCopyIsIndependent: a crash copy (CrashCopyFrom) of an oracle
// with persist state in flight (outstanding same-word stores, an armed
// barrier, an open redo fold) starts its accept tracking empty and shares
// nothing with its source: neither machine's later stores, accepts or
// barriers show in the other. A latched violation is copied as the copy's
// own value, and copying a clean machine over a latched one clears it.
func TestOracleCopyIsIndependent(t *testing.T) {
	p := storeProg([]uint64{1, 2, 3}, 0x100)
	src := persistMachine(t, []uint64{1, 2, 3}, 0x100)
	src.ObserveBarrierArm(0, 10)
	src.ObserveLogAppend(0, nvm.LogRecord{Addr: 0x100, Val: 3}, false)
	cp := New([]*isa.Program{p}, nil)
	cp.CrashCopyFrom(src)
	if len(cp.outstanding) != 0 || len(cp.lastDurable) != 0 || cp.armed[0] != nil || cp.logPend != nil {
		t.Fatalf("the copy's accept tracking is not empty: outstanding %v, durable %v, armed %v, redo %v",
			cp.outstanding, cp.lastDurable, cp.armed, cp.logPend)
	}

	// Each machine queues one more store to the word and the copy arms a
	// barrier of its own; neither reaches the source.
	src.commitStore(0, 7, 0x100, 77)
	cp.commitStore(0, 7, 0x100, 88)
	cp.ObserveBarrierArm(0, 12)
	if q := src.outstanding[0x100]; len(q) != 4 || q[3].val != 77 {
		t.Fatalf("the copy's store reached the source's queue: %+v", q)
	}
	if q := cp.outstanding[0x100]; len(q) != 1 || q[0].val != 88 {
		t.Fatalf("the source's stores reached the copy's queue: %+v", q)
	}

	// The source grows its redo fold and completes its barrier undrained.
	src.ObserveLogAppend(0, nvm.LogRecord{Addr: 0x108, Val: 5}, false)
	src.ObserveBarrierComplete(0, 20, pipeline.BoundarySync)
	var de *DivergenceError
	if !asDivergence(src.Err(), &de) || de.Report.PersistViolation == nil ||
		de.Report.PersistViolation.Kind != "barrier-incomplete" {
		t.Fatalf("source did not latch barrier-incomplete: %v", src.Err())
	}
	if err := cp.Err(); err != nil {
		t.Fatalf("the source's violation reached the copy: %v", err)
	}
	if cp.logPend != nil {
		t.Fatalf("the source's redo fold reached the copy: %v", cp.logPend)
	}

	// The copy drains its store with one accept and completes its barrier.
	accept(cp, 15, 0x100, 88)
	cp.ObserveBarrierComplete(0, 25, pipeline.BoundarySync)
	if err := cp.Err(); err != nil {
		t.Fatalf("drained copy latched: %v", err)
	}
	if rep := cp.Report(); rep.AcceptedWords != 1 || rep.Barriers != 1 || rep.UnmatchedAccepts != 0 {
		t.Fatalf("copy counters %+v", rep)
	}
	if rep := src.Report(); rep.AcceptedWords != 0 || rep.Barriers != 1 || len(src.lastDurable) != 0 {
		t.Fatalf("the copy's accepts reached the source: %+v, durable %v", rep, src.lastDurable)
	}

	// A latched violation carries over, as its own value.
	cp2 := New([]*isa.Program{p}, nil)
	cp2.CrashCopyFrom(src)
	if cp2.Err() == nil || cp2.Err().Error() != src.Err().Error() {
		t.Fatalf("latched violation not copied: %v vs %v", cp2.Err(), src.Err())
	}
	if cp2.Report().PersistViolation == src.Report().PersistViolation {
		t.Fatal("copy shares the source's violation")
	}
	// Copying a clean machine over a latched one clears it.
	cp2.CrashCopyFrom(cp)
	if err := cp2.Err(); err != nil {
		t.Fatalf("clean copy kept the old violation: %v", err)
	}
}
