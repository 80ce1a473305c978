package litmus

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ppa/internal/forensics"
	"ppa/internal/isa"
	"ppa/internal/litmus/px86"
	"ppa/internal/multicore"
	"ppa/internal/nvm"
	"ppa/internal/obs"
	"ppa/internal/oracle"
	"ppa/internal/persist"
	"ppa/internal/workload"
)

// RunOptions parameterizes the conformance harness. Every schedule runs
// under the lockstep oracle (internal/oracle), the harness's one
// persist-order checker; no option turns it off.
type RunOptions struct {
	// Schedules is the number of perturbed schedules per test (default 50).
	Schedules int
	// Seed selects the deterministic perturbation stream.
	Seed uint64
	// MaxCycles bounds each schedule's run and drain (default 50_000).
	MaxCycles uint64
	// Scheme, when non-nil, runs every schedule under this persistence
	// scheme instead of the default PPA configuration. Its retire policy
	// picks the durability carrier the harness checks: the durable log
	// stream for RetireGatedLog, the accept stream otherwise, where a gated
	// scheme's open tail may legally stay volatile, so the full-drain check
	// relaxes to the allowed set. Transaction schemes' crash legs also
	// recover through the scheme's own protocol and require the recovered
	// image to be an allowed state.
	Scheme *persist.Config
	// Obs, when non-nil, ticks live litmus.* metrics.
	Obs *obs.Hub
	// Forensics, when non-nil, captures a flight-recorder bundle (NVM
	// accept tail, trace/metrics snapshot from Obs, the first forbidden
	// outcome) for every schedule that produced a forbidden outcome.
	Forensics *forensics.Recorder
}

func (o RunOptions) normalized() RunOptions {
	if o.Schedules <= 0 {
		o.Schedules = 50
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 50_000
	}
	return o
}

// Forbidden is one conformance violation: an observation the axiomatic
// model does not allow, a verdict of the lockstep oracle (Kind is the
// oracle's PersistViolation kind, such as barrier-incomplete, or
// lockstep-divergence), or a machine-level failure while producing one.
type Forbidden struct {
	Test     string `json:"test"`
	Schedule int    `json:"schedule"`
	Kind     string `json:"kind"`
	Cycle    uint64 `json:"cycle"`
	State    string `json:"state,omitempty"`
	Detail   string `json:"detail"`
}

func (f *Forbidden) String() string {
	s := fmt.Sprintf("%s schedule %d cycle %d: %s: %s", f.Test, f.Schedule, f.Cycle, f.Kind, f.Detail)
	if f.State != "" {
		s += " [state " + f.State + "]"
	}
	return s
}

// TestResult aggregates one test's runs across all perturbed schedules.
type TestResult struct {
	Name      string `json:"name"`
	Cores     int    `json:"cores"`
	Schedules int    `json:"schedules"`
	Crashes   int    `json:"crashes"`
	// Allowed is the model's full allowed-outcome set; FinalAllowed the
	// subset legal once every store drained.
	Allowed      []string `json:"allowed"`
	FinalAllowed []string `json:"final_allowed"`
	// Observed counts how often each outcome key was seen across all
	// schedules' accept streams (soundness: every key must be allowed).
	Observed map[string]int `json:"observed"`
	// Unreached lists allowed outcomes no schedule exhibited (coverage:
	// reported, not failed — the machine legally over-synchronizes, e.g.
	// its per-core FIFO persist path never reorders across lines).
	Unreached []string     `json:"unreached,omitempty"`
	Forbidden []*Forbidden `json:"forbidden,omitempty"`
	// Accepts counts NVM accept-stream words processed.
	Accepts uint64 `json:"accepts"`
}

// maxForbiddenPerTest caps recorded violations per test; one is already
// a gate failure and cascades repeat the same root cause.
const maxForbiddenPerTest = 8

// RunTest compiles the test and runs it through the simulator under
// Schedules perturbed schedules (seeded step-order shuffling, WPQ
// accept-timing jitter, and periodic crash points), checking every
// observation against the axiomatic model and every commit, accept and
// barrier against the lockstep oracle.
func RunTest(t *Test, opt RunOptions) (*TestResult, error) {
	return newRunner(opt).runTest(t)
}

// runner runs schedules on one machine per core count, built on first use
// and reset in place for every later schedule, of this test or the next.
type runner struct {
	opt RunOptions
	sch persist.Config
	// logCarried selects the durability carrier (RunOptions.Scheme).
	logCarried bool
	machines   map[int]*multicore.System
	// sseed is the running schedule's seed; the machines' persist
	// perturbation reads it.
	sseed uint64
}

func newRunner(opt RunOptions) *runner {
	r := &runner{opt: opt.normalized(), sch: persist.PPADefault(), machines: make(map[int]*multicore.System)}
	if opt.Scheme != nil {
		r.sch = *opt.Scheme
	}
	r.logCarried = r.sch.Retire() == persist.RetireGatedLog
	return r
}

// machine returns the machine for w's core count, bound to w at schedule
// seed sseed.
func (r *runner) machine(w *workload.Workload, sseed uint64) (*multicore.System, error) {
	r.sseed = sseed
	n := len(w.Threads)
	if sys := r.machines[n]; sys != nil {
		return sys, sys.Reset(w, sseed|1)
	}
	cfg := multicore.DefaultConfig(n, r.sch)
	// Short persist latencies keep 50-schedule sweeps fast while leaving
	// a window the accept-timing jitter can actually reorder within.
	cfg.Hierarchy.PersistTransit = 24
	cfg.Hierarchy.PersistLag = 60
	cfg.StepSeed = sseed | 1
	cfg.PersistPerturb = r.perturb
	cfg.Lockstep = true
	sys, err := multicore.NewSystem(cfg, w)
	if err != nil {
		return nil, err
	}
	r.machines[n] = sys
	return sys, nil
}

// perturb defers ~25% of (core, cycle) accept slots: enough jitter to
// shuffle cross-core accept interleavings, low enough that every entry
// still drains promptly.
func (r *runner) perturb(core int, cycle uint64) bool {
	return mix(r.sseed, 0xACC, cycle, uint64(core))&3 == 0
}

func (r *runner) runTest(t *Test) (*TestResult, error) {
	c, err := Compile(t)
	if err != nil {
		return nil, err
	}
	opt := r.opt
	w := &workload.Workload{
		Profile: workload.Profile{
			Name:           "litmus",
			DepDistance:    1,
			Threads:        len(c.Progs),
			SyncContention: 1,
		},
		Threads: c.Progs,
	}
	res := &TestResult{
		Name:         t.Name,
		Cores:        len(t.Cores),
		Schedules:    opt.Schedules,
		Allowed:      c.Model.Outcomes(),
		FinalAllowed: c.Model.FinalOutcomes(),
		Observed:     make(map[string]int),
	}
	for s := 0; s < opt.Schedules; s++ {
		rec, err := r.runSchedule(c, w, s)
		if err != nil {
			return nil, err
		}
		if rec.crashed {
			res.Crashes++
		}
		res.Accepts += rec.accepts
		for k, n := range rec.observed {
			res.Observed[k] += n
		}
		for _, f := range rec.forbidden {
			if len(res.Forbidden) < maxForbiddenPerTest {
				res.Forbidden = append(res.Forbidden, f)
			}
		}
		if opt.Forensics != nil && len(rec.forbidden) > 0 {
			first := rec.forbidden[0]
			b := &forensics.Bundle{Meta: forensics.Meta{
				Kind:         forensics.KindLitmusForbidden,
				Reason:       first.String(),
				Test:         t.Name,
				Schedule:     s,
				Seed:         int64(opt.Seed),
				CaptureCycle: first.Cycle,
			}}
			forensics.Snapshot(opt.Obs, rec.accTail, b)
			_ = opt.Forensics.Capture(b)
		}
	}
	for _, k := range res.Allowed {
		if res.Observed[k] == 0 {
			res.Unreached = append(res.Unreached, k)
		}
	}
	if opt.Obs != nil {
		reg := opt.Obs.Registry()
		reg.Counter("litmus.tests").Inc()
		reg.Counter("litmus.schedules").Add(uint64(opt.Schedules))
		reg.Counter("litmus.forbidden").Add(uint64(len(res.Forbidden)))
		reg.Counter("litmus.outcomes-observed").Add(uint64(len(res.Observed)))
	}
	return res, nil
}

// recorder observes one schedule's NVM accept stream (or durable log
// stream) and checks it against the compiled model on the fly: every word
// must belong to a test slot and carry a value some core stores there, and
// every state the stream passes through must be one the model allows. The
// persist-order rules (coalescing subsumption, idempotent re-accept,
// barrier drain) are the lockstep oracle's, which runs every schedule.
type recorder struct {
	c         *Compiled
	sched     int
	dev       interface{ ReadWord(addr uint64) uint64 }
	overlay   []uint64 // the accept stream's view of the test words
	observed  map[string]int
	forbidden []*Forbidden
	accepts   uint64
	crashed   bool
	// accTail is the flight recorder's accept-stream ring (RunOptions.
	// Forensics); nil when forensics is off.
	accTail *forensics.AcceptTail
}

func newRecorder(c *Compiled, sched int) *recorder {
	r := &recorder{
		c:        c,
		sched:    sched,
		overlay:  make([]uint64, len(c.Addrs)),
		observed: make(map[string]int),
	}
	r.observe() // the initial (all-zero) state counts as observed
	return r
}

func (r *recorder) fail(kind string, cycle uint64, state, detail string) {
	if len(r.forbidden) >= maxForbiddenPerTest {
		return
	}
	r.forbidden = append(r.forbidden, &Forbidden{
		Test: r.c.Test.Name, Schedule: r.sched, Kind: kind,
		Cycle: cycle, State: state, Detail: detail,
	})
}

// runFailed records an error from Run, RunUntil or DrainPersists. The
// oracle's verdict keeps its own kind (a PersistViolation's, or
// lockstep-divergence) and the cycle it latched at; the image and log
// checks carry no cycle, so theirs is the machine's. Any other error is
// recorded as kind at the machine's cycle, with state when it is not "".
func (r *recorder) runFailed(sys *multicore.System, kind, state string, err error) {
	var de *oracle.DivergenceError
	if !errors.As(err, &de) {
		r.fail(kind, sys.Cycle(), state, err.Error())
		return
	}
	key := px86.Key(r.overlay)
	if d := de.Report.Divergence; d != nil {
		r.fail("lockstep-divergence", d.Cycle, key, d.String())
		return
	}
	v := de.Report.PersistViolation
	cycle := v.Cycle
	if cycle == 0 {
		cycle = sys.Cycle()
	}
	r.fail(v.Kind, cycle, key, fmt.Sprintf("core %d addr %#x: %s", v.Core, v.Addr, v.Detail))
}

// observe records the overlay as an observed outcome.
func (r *recorder) observe() {
	key := px86.Key(r.overlay)
	r.observed[key]++
}

// word checks one durable word of the test and folds it into the overlay;
// it reports false for a word outside the test's address slots. what names
// the stream ("accepted" or "logged").
func (r *recorder) word(cycle, addr, val uint64, what string) bool {
	slot, ok := r.c.Model.Slot(addr)
	if !ok {
		r.fail("stray-accept", cycle, "",
			fmt.Sprintf("%s word [%#x] <- %#x outside the test's address slots", what, addr, val))
		return false
	}
	r.accepts++
	if val == 0 || !r.c.values[slot][val] {
		r.fail("unknown-value", cycle, "",
			fmt.Sprintf("accepted word [%#x] <- %#x matches no store of the test", addr, val))
	}
	r.overlay[slot] = val
	return true
}

// onLogWord consumes one durable log-carried data record. For redo-logging
// schemes the log, not the accept stream, is the durability carrier: a
// record is durable at append, in commit order, so the same value and
// state-membership checks apply to the log fold. The image check is
// skipped — the image legitimately trails the log until the background
// applier catches up.
func (r *recorder) onLogWord(cycle, addr, val uint64) {
	if !r.word(cycle, addr, val, "logged") {
		return
	}
	r.observe()
	if key := px86.Key(r.overlay); !r.c.Model.MemberKey(key) {
		r.fail("forbidden-state", cycle, key,
			"durable log stream reached a state outside the model's allowed set")
	}
}

// onAccept consumes one accepted line from the NVM device.
func (r *recorder) onAccept(cycle, line uint64, words *isa.LineWords) {
	touched := false
	words.Range(line, func(addr, val uint64) {
		touched = r.word(cycle, addr, val, "accepted") || touched
	})
	if !touched {
		return
	}
	r.observe()
	if key := px86.Key(r.overlay); !r.c.Model.MemberKey(key) {
		r.fail("forbidden-state", cycle, key,
			"NVM accept stream reached a state outside the model's allowed set")
	}
	// The durable image must agree with the accept stream word for word.
	for slot, addr := range r.c.Addrs {
		if img := r.dev.ReadWord(addr); img != r.overlay[slot] {
			r.fail("image-divergence", cycle, px86.Key(r.overlay),
				fmt.Sprintf("durable image holds [%#x] = %#x, accept stream says %#x", addr, img, r.overlay[slot]))
		}
	}
}

// runSchedule executes one perturbed schedule of a compiled test on w.
func (r *runner) runSchedule(c *Compiled, w *workload.Workload, sched int) (*recorder, error) {
	opt := r.opt
	sseed := mix(opt.Seed, hashName(c.Test.Name), uint64(sched))
	n := len(c.Progs)
	sys, err := r.machine(w, sseed)
	if err != nil {
		return nil, err
	}
	scheme := sys.Scheme()
	rec := newRecorder(c, sched)
	rec.dev = sys.Device().Image()
	if r.logCarried {
		sys.Device().AddLogObserver(func(core int, lr nvm.LogRecord) {
			if lr.Marker {
				return
			}
			rec.onLogWord(sys.Cycle(), lr.Addr, lr.Val)
		})
	} else {
		sys.Device().AddAcceptObserver(rec.onAccept)
	}
	if opt.Forensics != nil {
		rec.accTail = forensics.NewAcceptTail(forensics.DefaultAcceptTail)
		sys.Device().AddAcceptObserver(rec.accTail.Observe)
	}

	// Every fourth schedule is a crash leg: run to a seeded cycle, pull
	// power, and require the surviving NVM state allowed by the model.
	// Transaction schemes additionally run their own recovery protocol and
	// must land the recovered image on an allowed state.
	if sched%4 == 3 {
		rec.crashed = true
		target := sys.Cycle() + 20 + mix(sseed, 0xC4A54)%400
		if _, err := sys.RunUntil(target); err != nil {
			rec.runFailed(sys, "run-error", "", err)
			return rec, nil
		}
		sys.Hierarchy().PowerFail()
		key := px86.Key(rec.overlay)
		if !c.Model.MemberKey(key) {
			rec.fail("forbidden-state", sys.Cycle(), key, "crash image outside the model's allowed set")
		}
		if scheme.Contract() == persist.RecoverTxnBoundary {
			if _, rerr := scheme.Recover(sys.Device(), n); rerr != nil {
				rec.fail("recovery-error", sys.Cycle(), "", rerr.Error())
				return rec, nil
			}
			state := make([]uint64, len(c.Addrs))
			for slot, addr := range c.Addrs {
				state[slot] = sys.Device().Image().ReadWord(addr)
			}
			if rkey := px86.Key(state); !c.Model.MemberKey(rkey) {
				rec.fail("forbidden-recovered-state", sys.Cycle(), rkey,
					"recovered NVM image outside the model's allowed set")
			}
		}
		return rec, nil
	}

	if err := sys.Run(opt.MaxCycles); err != nil {
		rec.runFailed(sys, "run-error", "", err)
		return rec, nil
	}
	if err := sys.DrainPersists(opt.MaxCycles); err != nil {
		rec.runFailed(sys, "drain-stuck", px86.Key(rec.overlay), err)
		return rec, nil
	}
	// Litmus footprints (2–3 lines) never evict; an eviction writeback
	// would persist lines outside the modeled accept flow, so surface it
	// instead of silently weakening the checks.
	if wb := sys.Hierarchy().NVMWritebacks; wb != 0 {
		rec.fail("unexpected-eviction", sys.Cycle(), "",
			fmt.Sprintf("%d NVM eviction writebacks in a litmus-sized footprint", wb))
	}
	key := px86.Key(rec.overlay)
	if r.sch.Retire() == persist.RetireGated {
		// The open gated tail is legally volatile on the accept stream; the
		// drained state need only be allowed, not all-stores-persisted.
		if !c.Model.MemberKey(key) {
			rec.fail("forbidden-state", sys.Cycle(), key,
				"fully-drained NVM state is outside the model's allowed set")
		}
		return rec, nil
	}
	if !c.Model.FinalMemberKey(key) {
		rec.fail("forbidden-final-state", sys.Cycle(), key,
			"fully-drained NVM state is not a legal all-stores-persisted outcome")
	}
	return rec, nil
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// CorpusReport aggregates a corpus run.
type CorpusReport struct {
	Tests          []*TestResult `json:"tests"`
	TotalTests     int           `json:"total_tests"`
	TotalSchedules int           `json:"total_schedules"`
	TotalForbidden int           `json:"total_forbidden"`
	AllowedTotal   int           `json:"allowed_total"`
	ObservedTotal  int           `json:"observed_total"`
	UnreachedTotal int           `json:"unreached_total"`
	// Coverage is observed distinct allowed outcomes / allowed outcomes.
	Coverage float64 `json:"coverage"`
}

// RunCorpus runs every test and aggregates soundness and coverage.
// progress (optional) fires after each test.
func RunCorpus(tests []*Test, opt RunOptions, progress func(*TestResult)) (*CorpusReport, error) {
	rep := &CorpusReport{TotalTests: len(tests)}
	r := newRunner(opt)
	for _, t := range tests {
		res, err := r.runTest(t)
		if err != nil {
			return nil, err
		}
		rep.Tests = append(rep.Tests, res)
		rep.TotalSchedules += res.Schedules
		rep.TotalForbidden += len(res.Forbidden)
		rep.AllowedTotal += len(res.Allowed)
		rep.ObservedTotal += len(res.Allowed) - len(res.Unreached)
		rep.UnreachedTotal += len(res.Unreached)
		if progress != nil {
			progress(res)
		}
	}
	if rep.AllowedTotal > 0 {
		rep.Coverage = float64(rep.ObservedTotal) / float64(rep.AllowedTotal)
	}
	return rep, nil
}

// FirstForbidden returns the report's first violation, or nil.
func (r *CorpusReport) FirstForbidden() *Forbidden {
	for _, tr := range r.Tests {
		if len(tr.Forbidden) > 0 {
			return tr.Forbidden[0]
		}
	}
	return nil
}

// Shrink greedily minimizes a forbidden-outcome reproducer: while the
// test still exhibits a forbidden outcome under the same options, drop
// operations (and then emptied cores) one at a time.
func Shrink(t *Test, opt RunOptions) *Test {
	cur := cloneTest(t)
	check := func(cand *Test) bool {
		res, err := RunTest(cand, opt)
		return err == nil && len(res.Forbidden) > 0
	}
	if !check(cur) {
		return cur
	}
	for {
		shrunk := false
		for ci := 0; ci < len(cur.Cores); ci++ {
			for oi := 0; oi < len(cur.Cores[ci]); oi++ {
				cand := cloneTest(cur)
				cand.Cores[ci] = append(cand.Cores[ci][:oi:oi], cand.Cores[ci][oi+1:]...)
				if len(cand.Cores[ci]) == 0 {
					cand.Cores = append(cand.Cores[:ci:ci], cand.Cores[ci+1:]...)
				}
				if len(cand.Cores) == 0 {
					continue
				}
				if check(cand) {
					cur = cand
					shrunk = true
				}
			}
		}
		if !shrunk {
			return cur
		}
	}
}

func cloneTest(t *Test) *Test {
	c := &Test{Name: t.Name, NAddrs: t.NAddrs, Layout: t.Layout}
	for _, ops := range t.Cores {
		c.Cores = append(c.Cores, append([]Op(nil), ops...))
	}
	return c
}

// Summarize renders a compact human outcome table for one test.
func Summarize(res *TestResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d cores, %d schedules (%d crash legs), %d accepts\n",
		res.Name, res.Cores, res.Schedules, res.Crashes, res.Accepts)
	keys := make([]string, 0, len(res.Observed))
	for k := range res.Observed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	allowed := make(map[string]bool, len(res.Allowed))
	for _, k := range res.Allowed {
		allowed[k] = true
	}
	for _, k := range keys {
		verdict := "allowed"
		if !allowed[k] {
			verdict = "FORBIDDEN"
		}
		fmt.Fprintf(&b, "  %-30s ×%-5d %s\n", k, res.Observed[k], verdict)
	}
	for _, k := range res.Unreached {
		fmt.Fprintf(&b, "  %-30s        allowed, unreached\n", k)
	}
	return b.String()
}
