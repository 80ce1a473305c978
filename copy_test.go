package ppa

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ppa/internal/isa"
	"ppa/internal/multicore"
	"ppa/internal/obs"
	"ppa/internal/workload"
)

// copyCutCycles are where the copy gates crash-copy a machine: early,
// mid-run and late in a 2000-instruction mcf run.
var copyCutCycles = []uint64{300, 2500, 6000}

// TestSystemCopyMatchesOriginal checks that System.CrashCopy shares no
// mutable storage with its source, field by field: for every machine of
// copyCases, at each of copyCutCycles the running original is crash-copied
// twice into one reused machine (every other cut with a torn dump). After
// each copy, no pointer target, map or slice backing range the down machine
// reaches may overlap one the original reaches, bar the values
// sharedOnPurpose names; one more ppa machine with an obs hub attached
// exercises the hub's entries. The original first loses power in place
// once and is reset, so it holds the storage an earlier outage leaves
// behind (a checkpoint area, persist logs, captures and a dump) for a copy
// to alias.
func TestSystemCopyMatchesOriginal(t *testing.T) {
	hub := copyCase{name: "mcf/ppa/obs", rc: RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000, Obs: obs.NewHub(0)}}
	for _, c := range append(copyCases(), hub) {
		rc := c.rc
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			orig, down, w := buildPair(t, rc)
			if _, err := orig.RunUntil(copyCutCycles[0]); err != nil {
				t.Fatal(err)
			}
			orig.CrashWithOptions(multicore.CrashOptions{})
			if err := orig.Reset(w, orig.Config().StepSeed); err != nil {
				t.Fatal(err)
			}
			for i, cycle := range copyCutCycles {
				done, err := orig.RunUntil(cycle)
				if err != nil {
					t.Fatalf("cycle %d: %v", cycle, err)
				}
				if done {
					break
				}
				var opt multicore.CrashOptions
				if i%2 == 1 {
					opt.ShortfallPermille = 400
				}
				src := walkStorage(orig, nil)
				for copies := 1; copies <= 2; copies++ {
					if _, err := down.CrashCopy(orig, opt); err != nil {
						t.Fatal(err)
					}
					walkStorage(down, func(sp span, path func() string) {
						if shared, ok := src.overlap(sp); ok {
							t.Fatalf("cycle %d, copy %d: the down machine's %s shares storage with the original's %s",
								cycle, copies, path(), storagePath(orig, shared))
						}
					})
				}
			}
		})
	}
}

// copyCase is one machine the copy gates copy.
type copyCase struct {
	name string
	rc   RunConfig
	// writebacks: some cut must find NVM and DRAM writebacks counted in
	// the source's hierarchy, so the gates see whether the copy keeps them.
	writebacks bool
}

// copyCases are every scheme on mcf and the organization goldens (the
// in-order cores included) at 2000 instructions per thread, plus 8-thread
// water-ns under ppa on 4 KiB L1Ds and a 32 KiB L2, small enough that
// dirty lines are written back to the DRAM cache and on to NVM before the
// second cut; each with lockstep off and on. No generated workload counts
// an invalidation (threads never write a shared line), so
// internal/cache's TestCopyStatsFromMatchesCopyAcrossPowerFail checks that
// counter's copy.
func copyCases() []copyCase {
	var base []copyCase
	for _, s := range Schemes() {
		base = append(base, copyCase{name: "mcf/" + string(s), rc: RunConfig{App: "mcf", Scheme: s, InstsPerThread: 2000}})
	}
	for _, run := range goldenOrgRuns {
		rc := run.rc
		rc.Customize = run.org
		rc.InstsPerThread = 2000
		base = append(base, copyCase{name: run.name, rc: rc})
	}
	small := func(c *multicore.Config) { c.Hierarchy.L1DSize, c.Hierarchy.L2Size = 4<<10, 32<<10 }
	base = append(base, copyCase{"water-ns/ppa/small-caches",
		RunConfig{App: "water-ns", Scheme: SchemePPA, InstsPerThread: 2000, Customize: small}, true})
	var cases []copyCase
	for _, c := range base {
		cases = append(cases, c)
		c.rc.Lockstep = true
		c.name += "/lockstep"
		cases = append(cases, c)
	}
	return cases
}

// sharedOnPurpose names what a crash copy shares with its source on
// purpose, each with its reason, in the style of exportKeeps. The storage
// walker neither records nor enters a value of these types. It skips func
// values too (observers, commit sinks, the persist perturbation): code a
// machine calls, not storage it holds.
var sharedOnPurpose = map[reflect.Type]string{
	reflect.TypeFor[*workload.Workload](): "the run's workload: every machine of a sweep only reads it",
	reflect.TypeFor[*isa.Program]():       "a thread's program and its instructions, part of the workload",
	reflect.TypeFor[*obs.Hub]():           "the obs hub, when one is attached: every machine built on it reports there",
	reflect.TypeFor[*obs.Tracer]():        "the hub's event tracer, which every machine built on the hub emits to",
	reflect.TypeFor[*obs.Counter]():       "a hub metric, handed by name to every machine built on the hub",
	reflect.TypeFor[*obs.Histogram]():     "a hub metric, handed by name to every machine built on the hub",
}

// span is storage a machine reaches: a pointer's target, a slice's backing
// array up to its capacity, or a map (one byte, for its identity).
type span struct{ lo, hi uintptr }

// storageSpans is the storage one machine reaches, sorted by address.
type storageSpans struct {
	spans []span
	maxHi []uintptr // maxHi[i] is the highest end among spans[:i+1]
}

// overlap returns a span of s that overlaps sp, if one does.
func (s *storageSpans) overlap(sp span) (span, bool) {
	n := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].lo >= sp.hi })
	if n == 0 || s.maxHi[n-1] <= sp.lo {
		return span{}, false
	}
	for i := n - 1; ; i-- {
		if s.spans[i].hi > sp.lo {
			return s.spans[i], true
		}
	}
}

// walkStorage walks every field sys reaches with reflect, exported or not,
// calls visit (when non-nil) with each span of storage it finds and the
// field path that reached it, and returns the spans.
func walkStorage(sys *multicore.System, visit func(sp span, path func() string)) *storageSpans {
	w := &storageWalk{seen: map[storageVisit]bool{}, holds: map[reflect.Type]bool{}, visit: visit}
	w.at = w.pathString
	w.walk(reflect.ValueOf(sys))
	slices.SortFunc(w.spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	s := &storageSpans{spans: w.spans, maxHi: make([]uintptr, len(w.spans))}
	var hi uintptr
	for i, sp := range w.spans {
		hi = max(hi, sp.hi)
		s.maxHi[i] = hi
	}
	return s
}

// storagePath is the field path by which sys reaches sp.
func storagePath(sys *multicore.System, sp span) string {
	path := "an unknown field"
	walkStorage(sys, func(got span, at func() string) {
		if got == sp {
			path = at()
		}
	})
	return path
}

// storageWalk is one walk of walkStorage.
type storageWalk struct {
	seen  map[storageVisit]bool
	holds map[reflect.Type]bool // holdsStorage's answers
	spans []span
	visit func(sp span, path func() string)
	at    func() string // pathString, bound once
	path  []pathStep
}

// pathStep is a field or map step (name) or an element index.
type pathStep struct {
	name string
	i    int
}

// pathString is the current field path from the machine.
func (w *storageWalk) pathString() string {
	var b strings.Builder
	b.WriteString("System")
	for _, st := range w.path {
		if st.name == "" {
			fmt.Fprintf(&b, "[%d]", st.i)
		} else {
			b.WriteString(st.name)
		}
	}
	return b.String()
}

// storageVisit is a pointer, slice or map the walk has entered: the same
// address is walked again under another type (a struct and its first
// field) or, for a slice, another length.
type storageVisit struct {
	p   uintptr
	t   reflect.Type
	len int
}

// walk records the storage v reaches and walks into it.
func (w *storageWalk) walk(v reflect.Value) {
	t := v.Type()
	if !w.holdsStorage(t) {
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		if w.enter(v, 0) {
			w.add(v.Pointer(), t.Elem().Size())
			w.walk(v.Elem())
		}
	case reflect.Slice:
		if w.enter(v, v.Len()) {
			w.add(v.Pointer(), uintptr(v.Cap())*t.Elem().Size())
			for i := range v.Len() {
				w.in("", i, v.Index(i))
			}
		}
	case reflect.Map:
		if w.enter(v, 0) {
			w.add(v.Pointer(), 1)
			for it := v.MapRange(); it.Next(); {
				w.in("[key]", 0, it.Key())
				w.in("[value]", 0, it.Value())
			}
		}
	case reflect.Chan, reflect.UnsafePointer:
		if w.enter(v, 0) {
			w.add(v.Pointer(), 1)
		}
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(v.Elem())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			w.in("."+t.Field(i).Name, 0, v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			w.in("", i, v.Index(i))
		}
	}
}

// in walks v, reached from the current path by the step name, or by
// index i when name is empty.
func (w *storageWalk) in(name string, i int, v reflect.Value) {
	if !w.holdsStorage(v.Type()) {
		return
	}
	w.path = append(w.path, pathStep{name, i})
	w.walk(v)
	w.path = w.path[:len(w.path)-1]
}

// enter reports whether v, a pointer, slice, map or channel, is non-nil
// and not entered before.
func (w *storageWalk) enter(v reflect.Value, n int) bool {
	if v.IsNil() {
		return false
	}
	key := storageVisit{v.Pointer(), v.Type(), n}
	if w.seen[key] {
		return false
	}
	w.seen[key] = true
	return true
}

// add records n bytes at p, if n is not zero.
func (w *storageWalk) add(p, n uintptr) {
	if n == 0 {
		return
	}
	sp := span{p, p + n}
	w.spans = append(w.spans, sp)
	if w.visit != nil {
		w.visit(sp, w.at)
	}
}

// holdsStorage reports whether a value of type t can reach storage the
// walk records: a pointer, slice, map, channel or interface not named in
// sharedOnPurpose, or an array or struct holding one.
func (w *storageWalk) holdsStorage(t reflect.Type) bool {
	if h, ok := w.holds[t]; ok {
		return h
	}
	w.holds[t] = false // a recursive type reaches itself through a pointer
	h := false
	if _, shared := sharedOnPurpose[t]; !shared {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.UnsafePointer, reflect.Interface:
			h = true
		case reflect.Array:
			h = t.Len() > 0 && w.holdsStorage(t.Elem())
		case reflect.Struct:
			for i := range t.NumField() {
				h = h || w.holdsStorage(t.Field(i).Type)
			}
		}
	}
	w.holds[t] = h
	return h
}

// TestCrashCopyMatchesCopyAndCrash is the differential gate on
// System.CrashCopy, which copies only what survives an outage: for every
// machine of copyCases, at each of copyCutCycles the running original is
// crash-copied into one reused machine, and a machine built the same way
// runs to the cut and loses power there in place, the same way (every other
// cut with a torn dump). Both must report the same images, dump sizes, tear
// and durable structures, and leave the same flush size, checkpoint area,
// persist logs, NVM image, oracle report, collected Result and hierarchy
// counters, which a writebacks case must find non-zero at some cut. The
// original must then finish with the Result and image of a run that was
// never copied.
func TestCrashCopyMatchesCopyAndCrash(t *testing.T) {
	for _, c := range copyCases() {
		rc, writebacks := c.rc, c.writebacks
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			orig, crashed, w := buildPair(t, rc)
			cfg, _, err := assemble(rc, w)
			if err != nil {
				t.Fatal(err)
			}
			for i, cycle := range copyCutCycles {
				done, err := orig.RunUntil(cycle)
				if err != nil {
					t.Fatalf("cycle %d: %v", cycle, err)
				}
				if done {
					break
				}
				var opt multicore.CrashOptions
				if i%2 == 1 {
					opt.ShortfallPermille = 400
				}
				inPlace, err := multicore.NewSystem(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := inPlace.RunUntil(cycle); err != nil {
					t.Fatal(err)
				}
				want := outageDigest(t, inPlace, inPlace.CrashWithOptions(opt))
				rep, err := crashed.CrashCopy(orig, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got := outageDigest(t, crashed, rep); got != want {
					t.Fatalf("cycle %d: the crash copy left %s, an outage in place %s", cycle, got, want)
				}
				if h := orig.Hierarchy(); h.NVMWritebacks > 0 && h.DRAMWritebacks > 0 {
					writebacks = false
				}
			}
			if writebacks {
				t.Errorf("no cut finds both NVM and DRAM writebacks in the source's hierarchy")
			}
			never, err := NewSystem(rc)
			if err != nil {
				t.Fatal(err)
			}
			budget := multicore.CycleBudget(rc.InstsPerThread)
			for _, sys := range []*multicore.System{never, orig} {
				if err := sys.Run(budget); err != nil {
					t.Fatal(err)
				}
			}
			final := func(sys *multicore.System) string {
				return jsonDigest(t, []any{sys.Collect(), sys.Device().Image().Snapshot()})
			}
			if got, want := final(orig), final(never); got != want {
				t.Errorf("the original finished after its crash copies with %s, a never-copied run with %s", got, want)
			}
		})
	}
}

// outageDigest digests what an outage reported and left on sys.
func outageDigest(t *testing.T, sys *multicore.System, rep *multicore.CrashReport) string {
	t.Helper()
	var images [][]byte
	for _, im := range rep.Images {
		images = append(images, im.Encode())
	}
	dev := sys.Device()
	var logs [][]any
	for core := range sys.Cores() {
		logs = append(logs, []any{dev.LogRecords(core)})
	}
	var orc any
	if m := sys.Oracle(); m != nil {
		orc = m.Report()
	}
	h := sys.Hierarchy()
	return jsonDigest(t, []any{sys.Cycle(), images, rep.CheckpointBytes, rep.FullBytes, rep.Torn,
		rep.StructuresCovered, sys.LastCrashFlushBytes(), dev.ReadCheckpoint(), logs, dev.Image().Snapshot(),
		orc, sys.Collect(), h.NVMWritebacks, h.DRAMWritebacks})
}

// buildPair builds two machines for rc over one workload, w.
func buildPair(t *testing.T, rc RunConfig) (orig, dup *multicore.System, w *workload.Workload) {
	t.Helper()
	cfg, w, err := assemble(rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if orig, err = multicore.NewSystem(cfg, w); err != nil {
		t.Fatal(err)
	}
	if dup, err = multicore.NewSystem(cfg, w); err != nil {
		t.Fatal(err)
	}
	return orig, dup, w
}

// TestSystemCopyRefusesOtherShapes checks that CrashCopy refuses a machine
// of another core count, core model, scheme, ROB or register-file size,
// free-register sampling or lockstep setting, either way, before it changes
// anything.
func TestSystemCopyRefusesOtherShapes(t *testing.T) {
	base := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000}
	others := map[string]RunConfig{
		"8 cores":        {App: "water-ns", Scheme: SchemePPA, InstsPerThread: 2000},
		"in-order cores": {App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000, Customize: inOrderPPA},
		"scheme":         {App: "mcf", Scheme: SchemeUndoLog, InstsPerThread: 2000},
		"ROB size": {App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000,
			Customize: func(c *multicore.Config) { c.Pipeline.ROBSize /= 2 }},
		"register file": {App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000,
			Customize: func(c *multicore.Config) { c.Pipeline.Rename.IntPhysRegs -= 20 }},
		"lockstep": {App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000, Lockstep: true},
		"free-register sampling": {App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000,
			Customize: func(c *multicore.Config) { c.Pipeline.SampleFreeRegs = true }},
	}
	for name, other := range others {
		t.Run(name, func(t *testing.T) {
			dst, err := NewSystem(base)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dst.RunUntil(1000); err != nil {
				t.Fatal(err)
			}
			src, err := NewSystem(other)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := src.RunUntil(3000); err != nil {
				t.Fatal(err)
			}
			state := func(sys *multicore.System) string {
				return jsonDigest(t, []any{sys.Cycle(), sys.Collect(), sys.Device().Image().Snapshot(), sys.Device().ReadCheckpoint()})
			}
			dstBefore, srcBefore := state(dst), state(src)
			if rep, err := dst.CrashCopy(src, multicore.CrashOptions{}); err == nil || rep != nil {
				t.Fatalf("CrashCopy accepted a machine of another %s", name)
			}
			if rep, err := src.CrashCopy(dst, multicore.CrashOptions{}); err == nil || rep != nil {
				t.Fatalf("CrashCopy onto a machine of another %s succeeded", name)
			}
			if state(dst) != dstBefore || state(src) != srcBefore {
				t.Fatal("a refused CrashCopy changed a machine")
			}
		})
	}
}
