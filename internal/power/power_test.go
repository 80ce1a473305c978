package power

import (
	"testing"
	"testing/quick"
)

func TestEvery(t *testing.T) {
	s := Every{Period: 100, Offset: 50}
	if c, _ := s.Next(0); c != 50 {
		t.Fatalf("first = %d", c)
	}
	if c, _ := s.Next(50); c != 150 {
		t.Fatalf("second = %d", c)
	}
	if c, _ := s.Next(151); c != 250 {
		t.Fatalf("third = %d", c)
	}
	if _, ok := (Every{}).Next(0); ok {
		t.Fatal("zero period never fires")
	}
}

func TestEveryProperty(t *testing.T) {
	f := func(after uint32) bool {
		s := Every{Period: 97, Offset: 13}
		c, ok := s.Next(uint64(after))
		if !ok {
			return false
		}
		// Strictly after, on the grid, and minimal.
		return c > uint64(after) && (c-13)%97 == 0 && c-uint64(after) <= 97
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSortedAndDeterministic(t *testing.T) {
	a := NewRandom(42, 20, 100, 10000)
	b := NewRandom(42, 20, 100, 10000)
	var prev uint64
	var ca, cb uint64
	var oka, okb bool
	for {
		ca, oka = a.Next(prev)
		cb, okb = b.Next(prev)
		if oka != okb || (oka && ca != cb) {
			t.Fatal("same seed must give the same schedule")
		}
		if !oka {
			break
		}
		if ca <= prev {
			t.Fatal("schedule must be increasing")
		}
		if ca < 100 || ca >= 10000 {
			t.Fatalf("cycle %d out of range", ca)
		}
		prev = ca
	}
}

func TestRandomDegenerateRange(t *testing.T) {
	r := NewRandom(1, 3, 50, 50) // max <= min
	c, ok := r.Next(0)
	if !ok || c != 50 {
		t.Fatalf("degenerate range: %d %v", c, ok)
	}
}
