package hwcost

import (
	"math"
	"testing"
)

// within reports |got-want| <= tol*want.
func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

func TestTable4MatchesPublishedCells(t *testing.T) {
	costs := Table4()
	if len(costs) != 3 {
		t.Fatalf("%d structures", len(costs))
	}
	// Published Table 4 values: area um^2, latency ns, energy pJ.
	want := []struct {
		area, lat, pj float64
	}{
		{12.20, 0.057, 0.00034},  // 64-bit LCPC
		{74.03, 0.067, 0.00029},  // 384-bit MaskReg
		{547.84, 0.070, 0.00025}, // 40-entry CSQ
	}
	for i, w := range want {
		c := costs[i]
		if !within(c.AreaUM2, w.area, 0.10) {
			t.Errorf("%s area %.2f, paper %.2f", c.Name, c.AreaUM2, w.area)
		}
		if !within(c.AccessLatencyNS, w.lat, 0.10) {
			t.Errorf("%s latency %.3f, paper %.3f", c.Name, c.AccessLatencyNS, w.lat)
		}
		if !within(c.DynAccessPJ, w.pj, 0.15) {
			t.Errorf("%s energy %.5f, paper %.5f", c.Name, c.DynAccessPJ, w.pj)
		}
	}
}

func TestArealOverheadHeadline(t *testing.T) {
	// The paper's headline: 0.005% of an 11.85 mm^2 core.
	f := ArealOverhead(Table4())
	if !within(f, 0.005/100, 0.15) {
		t.Fatalf("areal overhead %.5f%%, paper 0.005%%", f*100)
	}
}

func TestTable5Energies(t *testing.T) {
	rows := Table5(1838)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// PPA: 21.7 uJ; Capri: ~0.6 mJ (654 uJ); LightPC: ~189-199 mJ.
	if !within(rows[0].EnergyUJ, 21.7, 0.05) {
		t.Errorf("PPA %.1f uJ", rows[0].EnergyUJ)
	}
	if !within(rows[1].EnergyUJ, 654, 0.05) {
		t.Errorf("Capri %.0f uJ (paper ~0.6 mJ)", rows[1].EnergyUJ)
	}
	if !within(rows[2].EnergyUJ, 189_000, 0.10) {
		t.Errorf("LightPC %.0f uJ (paper 189 mJ)", rows[2].EnergyUJ)
	}
	// Volume ratios: PPA supercap ~0.005 of the core, Li-thin ~5e-5.
	if !within(rows[0].RatioSupercap, 0.005, 0.1) {
		t.Errorf("PPA supercap ratio %.5f", rows[0].RatioSupercap)
	}
	// Capri: 1.57 mm^3 supercap => ratio 0.14 (Table 5).
	if !within(rows[1].RatioSupercap, 0.14, 0.12) {
		t.Errorf("Capri supercap ratio %.4f", rows[1].RatioSupercap)
	}
	// LightPC: 527.8 mm^3 supercap => ratio 44.5.
	if !within(rows[2].RatioSupercap, 44.5, 0.12) {
		t.Errorf("LightPC supercap ratio %.2f", rows[2].RatioSupercap)
	}
}

func TestTable5DefaultBytes(t *testing.T) {
	rows := Table5(0)
	if rows[0].Bytes != 1838 {
		t.Fatalf("default PPA bytes %d", rows[0].Bytes)
	}
}

func TestEnergyMonotoneInBits(t *testing.T) {
	// Area grows with bits; per-access energy falls slightly (fixed port).
	small := Node22nm.CostOf(Structure{Name: "s", Bits: 64})
	big := Node22nm.CostOf(Structure{Name: "b", Bits: 4096})
	if big.AreaUM2 <= small.AreaUM2 {
		t.Fatal("area must grow with bits")
	}
	if big.AccessLatencyNS <= small.AccessLatencyNS {
		t.Fatal("latency must grow with bits")
	}
	if big.DynAccessPJ >= small.DynAccessPJ {
		t.Fatal("per-access energy falls with structure size in this regime")
	}
}

func TestArrayFactor(t *testing.T) {
	flat := Node22nm.CostOf(Structure{Bits: 1024})
	arr := Node22nm.CostOf(Structure{Bits: 1024, IsArray: true})
	if arr.AreaUM2 <= flat.AreaUM2 {
		t.Fatal("arrays carry decode/wiring overhead")
	}
}

func TestPPAStructuresGeometry(t *testing.T) {
	ss := PPAStructures(348, 40)
	if len(ss) != 3 {
		t.Fatalf("%d structures", len(ss))
	}
	if ss[0].Bits != 64 {
		t.Fatal("LCPC is 64 bits")
	}
	if ss[1].Bits != 384 {
		t.Fatalf("MaskReg rounds 348 -> 384 bits, got %d", ss[1].Bits)
	}
	if ss[2].Bits != 40*64 || !ss[2].IsArray {
		t.Fatal("CSQ is a 40x64b array")
	}
}

func TestEADRComparisonConstants(t *testing.T) {
	// The paper's quoted budgets: eADR's supercapacitor 550 mJ, BBB's
	// 775 uJ.
	const eadr, bbb = 550.0, 775.0
	// The paper's ratios: eADR needs ~25943x PPA's energy; BBB ~36.5x.
	ppaUJ := Table5(1838)[0].EnergyUJ
	if r := eadr * 1000 / ppaUJ; !within(r, 25943, 0.1) {
		t.Errorf("eADR/PPA energy ratio %.0f, paper 25943", r)
	}
	if r := bbb / ppaUJ; !within(r, 36.5, 0.1) {
		t.Errorf("BBB/PPA energy ratio %.1f, paper 36.5", r)
	}
}
