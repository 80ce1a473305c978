package px86

import (
	"reflect"
	"testing"
)

const (
	addrA = uint64(0x1000)
	addrB = uint64(0x1040)
)

func mustModel(t *testing.T, cores []CoreProg, addrs []uint64) *Model {
	t.Helper()
	m, err := NewModel(cores, addrs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestModelSB: two cores, one independent store each — every interleaving
// prefix is allowed and the only final state has both stores applied.
func TestModelSB(t *testing.T) {
	m := mustModel(t, []CoreProg{
		{Stores: []Store{{Addr: addrA, Val: 1}}},
		{Stores: []Store{{Addr: addrB, Val: 2}}},
	}, []uint64{addrA, addrB})
	wantAllowed := []string{"0 0", "0 2", "1 0", "1 2"}
	if got := m.Outcomes(); !reflect.DeepEqual(got, wantAllowed) {
		t.Errorf("allowed = %v, want %v", got, wantAllowed)
	}
	if got, want := m.FinalOutcomes(), []string{"1 2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("final = %v, want %v", got, want)
	}
}

// TestModelMP: data, barrier, flag on one core — the flag must never be
// durable without the data.
func TestModelMP(t *testing.T) {
	m := mustModel(t, []CoreProg{
		{Stores: []Store{{Addr: addrA, Val: 1}, {Addr: addrB, Val: 2}}, Barriers: []int{1}},
	}, []uint64{addrA, addrB})
	wantAllowed := []string{"0 0", "1 0", "1 2"}
	if got := m.Outcomes(); !reflect.DeepEqual(got, wantAllowed) {
		t.Errorf("allowed = %v, want %v", got, wantAllowed)
	}
	if m.MemberKey(Key([]uint64{0, 2})) {
		t.Error("flag-without-data allowed; the barrier edge is not enforced")
	}
}

// TestModelMPNoBarrier: without the barrier the flag may persist first.
func TestModelMPNoBarrier(t *testing.T) {
	m := mustModel(t, []CoreProg{
		{Stores: []Store{{Addr: addrA, Val: 1}, {Addr: addrB, Val: 2}}},
	}, []uint64{addrA, addrB})
	if !m.MemberKey(Key([]uint64{0, 2})) {
		t.Error("unordered cross-address stores must allow either persist order")
	}
}

// TestModel2p2w pins the case that breaks per-address reasoning: with
// fences on both cores, the "both second stores win while both first
// stores are final losers" combination requires a cyclic linearization
// and must be excluded from the final set — even though each address's
// value is individually a legal last writer.
func TestModel2p2w(t *testing.T) {
	// p0: A<-1; fence; B<-4.  p1: B<-7; fence; A<-7.
	m := mustModel(t, []CoreProg{
		{Stores: []Store{{Addr: addrA, Val: 1}, {Addr: addrB, Val: 4}}, Barriers: []int{1}},
		{Stores: []Store{{Addr: addrB, Val: 7}, {Addr: addrA, Val: 7}}, Barriers: []int{1}},
	}, []uint64{addrA, addrB})
	wantFinal := []string{"1 4", "7 4", "7 7"}
	if got := m.FinalOutcomes(); !reflect.DeepEqual(got, wantFinal) {
		t.Fatalf("final = %v, want %v", got, wantFinal)
	}
	// {A=1, B=7} would need p1's A<-7 before p0's A<-1 (A order) and p0's
	// B<-4 before p1's B<-7 (B order) — with the fences that is the cycle
	// A7 < A1 < B4 < B7 < A7.
	if m.FinalMemberKey(Key([]uint64{1, 7})) {
		t.Error("cyclic 2+2W outcome admitted: the solver is reasoning per-address")
	}
	// As a transient prefix (not all stores persisted) {A=1, B=7} is fine:
	// persist A1 then B7, leaving B4 and A7 outstanding... which the fence
	// forbids too (B7 needs A7 first? no: p1's fence orders B7 before A7,
	// so B7 alone is fine; p0's fence orders A1 before B4, so A1 alone is
	// fine). It must therefore be in the allowed set.
	if !m.MemberKey(Key([]uint64{1, 7})) {
		t.Error("{A=1,B=7} must be reachable as a transient prefix")
	}
}

// TestModelSameAddressChain: same-word stores of one core persist in
// program order even without barriers; intermediate skips (coalescing)
// are legal, reorderings are not.
func TestModelSameAddressChain(t *testing.T) {
	m := mustModel(t, []CoreProg{
		{Stores: []Store{{Addr: addrA, Val: 1}, {Addr: addrA, Val: 2}, {Addr: addrA, Val: 3}}},
	}, []uint64{addrA})
	wantAllowed := []string{"0", "1", "2", "3"}
	if got := m.Outcomes(); !reflect.DeepEqual(got, wantAllowed) {
		t.Errorf("allowed = %v, want %v", got, wantAllowed)
	}
	if got, want := m.FinalOutcomes(), []string{"3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("final = %v, want %v", got, want)
	}
}

// TestModelOrdered pins the ⊑ relation directly.
func TestModelOrdered(t *testing.T) {
	cp := CoreProg{
		Stores:   []Store{{Addr: addrA, Val: 1}, {Addr: addrB, Val: 2}, {Addr: addrA, Val: 3}},
		Barriers: []int{2},
	}
	cases := []struct {
		i, j int
		want bool
	}{
		{0, 1, false}, // different addresses, no barrier between
		{0, 2, true},  // same address
		{1, 2, true},  // barrier at 2 sits between store 1 and store 2
		{2, 0, true},  // Ordered is symmetric in argument order
		{1, 1, false},
	}
	for _, c := range cases {
		if got := cp.Ordered(c.i, c.j); got != c.want {
			t.Errorf("Ordered(%d,%d) = %v, want %v", c.i, c.j, got, c.want)
		}
	}
}

// TestModelRMWShape: an RMW is a barrier followed by its store — earlier
// stores of the core must be durable before the RMW's value.
func TestModelRMWShape(t *testing.T) {
	// st A<-1; rmw B (barrier, then B<-5).
	m := mustModel(t, []CoreProg{
		{Stores: []Store{{Addr: addrA, Val: 1}, {Addr: addrB, Val: 5}}, Barriers: []int{1}},
	}, []uint64{addrA, addrB})
	if m.MemberKey(Key([]uint64{0, 5})) {
		t.Error("RMW persisted before the store its implicit barrier orders first")
	}
}

// TestModelErrors: the constructor rejects malformed inputs explicitly.
func TestModelErrors(t *testing.T) {
	if _, err := NewModel([]CoreProg{{Stores: []Store{{Addr: 0x9999, Val: 1}}}}, []uint64{addrA}); err == nil {
		t.Error("store to a non-model address accepted")
	}
	if _, err := NewModel(nil, []uint64{addrB, addrA}); err == nil {
		t.Error("descending address set accepted")
	}
	if _, err := NewModel([]CoreProg{{Stores: []Store{{Addr: addrA, Val: 1}}, Barriers: []int{5}}}, []uint64{addrA}); err == nil {
		t.Error("out-of-range barrier position accepted")
	}
	long := CoreProg{}
	for i := 0; i <= MaxStoresPerCore; i++ {
		long.Stores = append(long.Stores, Store{Addr: addrA, Val: uint64(i + 1)})
	}
	if _, err := NewModel([]CoreProg{long}, []uint64{addrA}); err == nil {
		t.Error("oversized core accepted")
	}
}
