package litmus

import (
	"reflect"
	"testing"
)

// TestGenerateDeterministic: one seed, one corpus — byte for byte.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenOptions{Seed: 7, Count: 40})
	b := Generate(GenOptions{Seed: 7, Count: 40})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different corpora")
	}
	c := Generate(GenOptions{Seed: 8, Count: 40})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical corpora")
	}
	// Prefix stability: the i-th test depends only on (seed, i), so a
	// longer corpus extends a shorter one instead of reshuffling it.
	long := Generate(GenOptions{Seed: 7, Count: 60})
	if !reflect.DeepEqual(a, long[:40]) {
		t.Fatal("growing the corpus reshuffled earlier tests")
	}
}

// TestGenerateShapes: every generated test compiles, solves, and stays
// inside the advertised shape envelope (2–4 cores, 2–3 slots, ≥1 store).
func TestGenerateShapes(t *testing.T) {
	tests := Generate(GenOptions{Seed: 3, Count: 120})
	if len(tests) != 120 {
		t.Fatalf("generated %d tests, want 120", len(tests))
	}
	coreCounts := map[int]int{}
	layouts := map[string]int{}
	for _, lt := range tests {
		if len(lt.Cores) < 2 || len(lt.Cores) > 4 {
			t.Fatalf("%s: %d cores outside 2–4", lt.Name, len(lt.Cores))
		}
		if lt.NAddrs < 2 || lt.NAddrs > 3 {
			t.Fatalf("%s: %d address slots outside 2–3", lt.Name, lt.NAddrs)
		}
		coreCounts[len(lt.Cores)]++
		layouts[lt.Layout]++
		c, err := Compile(lt)
		if err != nil {
			t.Fatalf("%s does not compile: %v", lt.Name, err)
		}
		stores := 0
		for _, cp := range c.Model.Cores {
			stores += len(cp.Stores)
		}
		if stores == 0 {
			t.Fatalf("%s has no stores; it cannot exercise the persist path", lt.Name)
		}
		if len(c.Model.FinalOutcomes()) == 0 {
			t.Fatalf("%s solved to an empty final set", lt.Name)
		}
	}
	for n := 2; n <= 4; n++ {
		if coreCounts[n] == 0 {
			t.Errorf("no generated test has %d cores", n)
		}
	}
	if layouts[LayoutSplit] == 0 || layouts[LayoutPacked] == 0 {
		t.Errorf("layout mix degenerate: %v", layouts)
	}
}

// TestGenerateFixedCores: the -cores override pins the width.
func TestGenerateFixedCores(t *testing.T) {
	for _, lt := range Generate(GenOptions{Seed: 5, Count: 20, Cores: 3}) {
		if len(lt.Cores) != 3 {
			t.Fatalf("%s: %d cores, want 3", lt.Name, len(lt.Cores))
		}
	}
}

// TestCompileValueModel pins the compiler's value assignment: distinct
// power-of-two autos, RMW accumulating the core's own functional view.
func TestCompileValueModel(t *testing.T) {
	lt, err := decodeOne("litmus v\ncores 2 addrs 2 layout split\np0: st0 rmw0=2 st1\np1: st0=9\n")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(lt)
	if err != nil {
		t.Fatal(err)
	}
	// p0: st0 auto = 1<<0 = 1; rmw0 adds 2 onto the core's view (1) = 3;
	// st1 auto = 1<<2 = 4. p1: explicit 9.
	p0 := c.Model.Cores[0].Stores
	want := []uint64{1, 3, 4}
	for i, w := range want {
		if p0[i].Val != w {
			t.Fatalf("p0 store %d value %#x, want %#x (stores %+v)", i, p0[i].Val, w, p0)
		}
	}
	if got := c.Model.Cores[1].Stores[0].Val; got != 9 {
		t.Fatalf("p1 explicit value %#x, want 9", got)
	}
	// The RMW contributes a barrier immediately before its own store.
	if got := c.Model.Cores[0].Barriers; !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("p0 barriers %v, want [1]", got)
	}
	// Chains mirror per-(core, slot) store values in program order.
	if got := c.Chains[0][0]; !reflect.DeepEqual(got, []uint64{1, 3}) {
		t.Fatalf("p0 slot0 chain %v", got)
	}
}

// TestSlotAddrLayouts: packed slots share a line, split slots do not.
func TestSlotAddrLayouts(t *testing.T) {
	packed := &Test{Layout: LayoutPacked}
	split := &Test{Layout: LayoutSplit}
	if d := packed.SlotAddr(1) - packed.SlotAddr(0); d != 8 {
		t.Fatalf("packed slot stride %d, want 8", d)
	}
	if d := split.SlotAddr(1) - split.SlotAddr(0); d != 64 {
		t.Fatalf("split slot stride %d, want 64", d)
	}
}
