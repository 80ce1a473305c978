package ppa

import (
	"fmt"
	"testing"
)

// The JIT checkpoint dump's two public faces are pinned here: Table 5's
// analytical rows (the §7.13 size, time and energy) and the torn dump a
// TornCheckpoint fault leaves behind, read off the trace. Regenerate only
// for an intended behaviour change: run the tests and copy the values a
// failure prints.

// goldenTable5Digest is the SHA-256 of Table5()'s JSON: the three hwcost
// rows, the 1834-byte worst case, its read and flush times and the
// controller's RTL figures.
const goldenTable5Digest = "4a1e156ac3caa4faff03a4508ea82e10f37c00531786d697b9c8d229ead67f0f"

func TestTable5Digest(t *testing.T) {
	if got := jsonDigest(t, Table5()); got != goldenTable5Digest {
		t.Errorf("Table 5 digest %s, golden %s", got, goldenTable5Digest)
	}
}

// tornDump is one checkpoint-torn trace event: the dump's full encoded
// size, the bytes the reservoir streamed before brownout, and how many
// leading units (header + five structures) of the image the cut landed in
// are durable.
type tornDump struct {
	full, written, structs int64
}

// tornDumpCase is a TornCheckpoint point whose Param is a permille of the
// dump's energy demand (reduced mod 1000).
type tornDumpCase struct {
	app   string
	cycle uint64
	param uint64
}

// tornDumpParams sweep the reservoir from empty (0) to 999 permille, and
// 1500 wraps to 500. The cut cycles are chosen so
// that some of these put full×permille on a multiple of 1000, where the
// budget's float arithmetic floors a byte below the exact quotient.
var tornDumpParams = []uint64{0, 1, 125, 200, 250, 333, 500, 750, 875, 999, 1500}

// goldenTornDumps pins each case's checkpoint-torn event.
var goldenTornDumps = map[tornDumpCase]tornDump{
	{"mcf", 1750, 0}:       {2124, 0, 0},
	{"mcf", 1750, 1}:       {2124, 2, 0},
	{"mcf", 1750, 125}:     {2124, 265, 2},
	{"mcf", 1750, 200}:     {2124, 424, 2},
	{"mcf", 1750, 250}:     {2124, 531, 2},
	{"mcf", 1750, 333}:     {2124, 707, 2},
	{"mcf", 1750, 500}:     {2124, 1062, 4},
	{"mcf", 1750, 750}:     {2124, 1592, 5},
	{"mcf", 1750, 875}:     {2124, 1858, 5},
	{"mcf", 1750, 999}:     {2124, 2121, 5},
	{"mcf", 1750, 1500}:    {2124, 1062, 4},
	{"mcf", 3250, 0}:       {2908, 0, 0},
	{"mcf", 3250, 1}:       {2908, 2, 0},
	{"mcf", 3250, 125}:     {2908, 363, 2},
	{"mcf", 3250, 200}:     {2908, 581, 2},
	{"mcf", 3250, 250}:     {2908, 726, 2},
	{"mcf", 3250, 333}:     {2908, 968, 2},
	{"mcf", 3250, 500}:     {2908, 1453, 3},
	{"mcf", 3250, 750}:     {2908, 2180, 5},
	{"mcf", 3250, 875}:     {2908, 2544, 5},
	{"mcf", 3250, 999}:     {2908, 2905, 5},
	{"mcf", 3250, 1500}:    {2908, 1453, 3},
	{"mcf", 6750, 0}:       {1580, 0, 0},
	{"mcf", 6750, 1}:       {1580, 1, 0},
	{"mcf", 6750, 125}:     {1580, 197, 2},
	{"mcf", 6750, 200}:     {1580, 316, 2},
	{"mcf", 6750, 250}:     {1580, 394, 2},
	{"mcf", 6750, 333}:     {1580, 526, 3},
	{"mcf", 6750, 500}:     {1580, 789, 5},
	{"mcf", 6750, 750}:     {1580, 1185, 5},
	{"mcf", 6750, 875}:     {1580, 1382, 5},
	{"mcf", 6750, 999}:     {1580, 1578, 5},
	{"mcf", 6750, 1500}:    {1580, 789, 5},
	{"barnes", 1250, 0}:    {17920, 0, 0},
	{"barnes", 1250, 1}:    {17920, 17, 1},
	{"barnes", 1250, 125}:  {17920, 2240, 5},
	{"barnes", 1250, 200}:  {17920, 3583, 5},
	{"barnes", 1250, 250}:  {17920, 4480, 2},
	{"barnes", 1250, 333}:  {17920, 5967, 5},
	{"barnes", 1250, 500}:  {17920, 8960, 2},
	{"barnes", 1250, 750}:  {17920, 13440, 2},
	{"barnes", 1250, 875}:  {17920, 15679, 2},
	{"barnes", 1250, 999}:  {17920, 17902, 5},
	{"barnes", 1250, 1500}: {17920, 8960, 2},
	{"barnes", 1750, 0}:    {14144, 0, 0},
	{"barnes", 1750, 1}:    {14144, 14, 0},
	{"barnes", 1750, 125}:  {14144, 1767, 1},
	{"barnes", 1750, 200}:  {14144, 2828, 5},
	{"barnes", 1750, 250}:  {14144, 3535, 2},
	{"barnes", 1750, 333}:  {14144, 4709, 5},
	{"barnes", 1750, 500}:  {14144, 7071, 4},
	{"barnes", 1750, 750}:  {14144, 10608, 2},
	{"barnes", 1750, 875}:  {14144, 12376, 2},
	{"barnes", 1750, 999}:  {14144, 14129, 5},
	{"barnes", 1750, 1500}: {14144, 7071, 4},
}

func TestTornDumpTrace(t *testing.T) {
	apps := []struct {
		name   string
		insts  int
		cycles []uint64
	}{
		{"mcf", 2000, []uint64{1_750, 3_250, 6_750}},
		// Eight cores: a cut mid-dump lands in a later core's image.
		{"barnes", 1000, []uint64{1_250, 1_750}},
	}
	var lines []string
	floorBites := 0
	for _, a := range apps {
		for _, cycle := range a.cycles {
			for _, param := range tornDumpParams {
				c := tornDumpCase{a.name, cycle, param}
				hub := NewObsHub(1 << 16)
				rc := RunConfig{App: a.name, Scheme: SchemePPA, InstsPerThread: a.insts, Obs: hub}
				p := TorturePoint{Cycle: cycle, Fault: Fault{Kind: FaultTornCheckpoint, Param: param}}
				out, err := RunTorturePoint(rc, p)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Injected || out.Violation != "" {
					t.Fatalf("%+v: injected=%v violation=%q", c, out.Injected, out.Violation)
				}
				var got []tornDump
				for _, ev := range hub.Tracer().Events() {
					if ev.Name != "checkpoint-torn" {
						continue
					}
					var d tornDump
					for _, arg := range ev.Args {
						switch arg.Key {
						case "full":
							d.full = arg.Val
						case "written":
							d.written = arg.Val
						case "structs":
							d.structs = arg.Val
						}
					}
					got = append(got, d)
				}
				if len(got) != 1 {
					t.Fatalf("%+v: %d checkpoint-torn events, want 1", c, len(got))
				}
				want, ok := goldenTornDumps[c]
				if !ok || got[0] != want {
					t.Errorf("%+v: torn dump %+v, golden %+v", c, got[0], want)
				}
				if got[0].written != got[0].full*int64(param%1000)/1000 {
					floorBites++
				}
				lines = append(lines, fmt.Sprintf("{%q, %d, %d}: {%d, %d, %d},",
					c.app, c.cycle, c.param, got[0].full, got[0].written, got[0].structs))
			}
		}
	}
	if floorBites == 0 {
		t.Error("no case floors below the exact budget: the sweep no longer pins the float arithmetic")
	}
	if t.Failed() {
		for _, line := range lines {
			t.Log(line)
		}
	}
}
