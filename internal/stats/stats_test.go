package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// pAt reads P(sample <= v) off a CDF's points.
func pAt(c *CDF, v int) float64 {
	p := 0.0
	for _, pt := range c.Points() {
		if pt.Value <= v {
			p = pt.P
		}
	}
	return p
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF()
	for i := 1; i <= 100; i++ {
		c.Add(i)
	}
	if c.Total() != 100 {
		t.Fatalf("total %d", c.Total())
	}
	if got := pAt(c, 50); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("P(<= 50) = %v", got)
	}
	if got := pAt(c, 100); got != 1.0 {
		t.Fatalf("P(<= 100) = %v", got)
	}
	if got := pAt(c, 0); got != 0 {
		t.Fatalf("P(<= 0) = %v", got)
	}
	if m := c.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestCDFAddN(t *testing.T) {
	c := NewCDF()
	c.AddN(5, 10)
	c.AddN(10, 30)
	c.AddN(10, 0) // no-op
	if c.Total() != 40 {
		t.Fatalf("total %d", c.Total())
	}
	if got := pAt(c, 5); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("P(<= 5) = %v", got)
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	f := func(vals []uint8) bool {
		c := NewCDF()
		for _, v := range vals {
			c.Add(int(v))
		}
		pts := c.Points()
		prevV := -1
		prevP := 0.0
		for _, p := range pts {
			if p.Value <= prevV || p.P < prevP || p.P > 1.0000001 {
				return false
			}
			prevV, prevP = p.Value, p.P
		}
		return len(vals) == 0 || math.Abs(pts[len(pts)-1].P-1.0) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF()
	if c.Mean() != 0 {
		t.Fatal("empty CDF must return zeros")
	}
	if len(c.Points()) != 0 {
		t.Fatal("empty CDF has no points")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram must be zero")
	}
	for _, v := range []int64{3, 1, 4, 1, 5} {
		h.Add(v)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if math.Abs(h.Mean()-2.8) > 1e-9 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Sum() != 14 {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestHistogramNegative(t *testing.T) {
	var h Histogram
	h.Add(-5)
	h.Add(5)
	if h.Min() != -5 || h.Max() != 5 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Fatalf("GeoMean = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("empty GeoMean = %v", g)
	}
	// Non-positive entries are skipped rather than poisoning the product.
	if g := GeoMean([]float64{2, 0, -1, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("GeoMean with junk = %v", g)
	}
	// Property: gmean of identical values is that value (within the
	// exp/log round trip's precision; extreme magnitudes lose more bits).
	f := func(x float64) bool {
		if x <= 0 || math.IsInf(x, 0) || math.IsNaN(x) || x > 1e300 || x < 1e-300 {
			return true
		}
		g := GeoMean([]float64{x, x, x})
		return math.Abs(g-x) < 1e-9*x+1e-300
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMaxRatio(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty aggregates must be zero")
	}
	if m := Mean([]float64{1, 2, 3}); math.Abs(m-2) > 1e-9 {
		t.Fatalf("Mean = %v", m)
	}
	if Ratio(10, 0) != 0 {
		t.Fatal("Ratio by zero must be zero")
	}
	if Ratio(10, 4) != 2.5 {
		t.Fatal("Ratio wrong")
	}
}

// Property: GeoMean is always between min and max of positive inputs.
func TestGeoMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) && x < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
