package ppa

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"ppa/internal/checkpoint"
	"ppa/internal/fault"
	"ppa/internal/forensics"
	"ppa/internal/isa"
	"ppa/internal/multicore"
	"ppa/internal/oracle"
	"ppa/internal/persist"
	"ppa/internal/recovery"
	"ppa/internal/rename"
	"ppa/internal/workload"
)

// This file is the crash driver: the one place that cuts power, damages
// what the outage left behind, recovers under the scheme's recovery
// contract, verifies the result and resumes. RunWithFailure,
// RunWithFailureSchedule, RunTorturePoint and the campaigns (the torture
// sweeps, VerifyApp and the mutation gate) are parameterizations of it.

// crashRun is a machine under test plus what the driver carries across its
// outages: the run's configuration, its workload and the flight recorder's
// accept taps. The machine it steps never loses power: a cut makes a second
// machine of the same shape what the live one would be right after the
// outage, carrying over only what survives it (the device, the cores'
// checkpointed state, the oracle and the clock, plus the dirty words an
// eADR battery flushes into its device), and damages, recovers and
// verifies that copy, so the live machine can go on to a later cut without
// simulating its prefix again. A single crash or a failure schedule builds
// one for its run; a torture worker keeps one for all its points, and a
// crash campaign one for its clean run and all its cuts.
type crashRun struct {
	rc RunConfig
	w  *workload.Workload

	// sys is the live machine, stepped forward from cycle zero (or from a
	// resume) and reset only when a cut lies behind its clock; halt is the
	// lockstep divergence that stopped it, returned again for every later
	// cut instead of stepping a diverged machine further.
	sys   *multicore.System
	ftail *forensics.AcceptTail
	halt  error

	// down is the machine that loses power at a cut, built on the first
	// one; dtail taps its device and holds a copy of ftail's accepts.
	down  *multicore.System
	dtail *forensics.AcceptTail

	// A cut's scratch, reused by the next: the images recovery decodes,
	// the renamer it restores for the register check, and one golden
	// execution per core that verify advances to each contract point
	// (restarting it only for a point behind it) for the inconsistency
	// count and the register check. Nothing a cut returns refers to them.
	images      []*checkpoint.Image
	ren         *rename.Renamer
	goldens     []*isa.GoldenResult
	goldenProgs []*isa.Program
}

// rewind makes the live machine able to reach cycle: it builds the machine
// on first use, over r.w or a workload it generates, and resets it in place
// to cycle zero when cycle lies behind its clock. Either way a fresh accept
// tail taps it (see attach).
func (r *crashRun) rewind(cycle uint64) error {
	switch {
	case r.sys == nil:
		sys, err := r.build()
		if err != nil {
			return err
		}
		r.attach(sys)
	case r.sys.Cycle() > cycle:
		if err := r.sys.Reset(r.w, r.sys.Config().StepSeed); err != nil {
			return err
		}
		r.attach(r.sys)
	}
	return nil
}

// build assembles a machine for r.rc over r.w, generating r.w on first use.
func (r *crashRun) build() (*multicore.System, error) {
	cfg, w, err := assemble(r.rc, r.w)
	if err != nil {
		return nil, err
	}
	r.w = w
	return multicore.NewSystem(cfg, w)
}

// attach makes sys the live machine. With a flight recorder, a fresh accept
// tail taps its device: a lockstep machine's oracle replaces the device's
// observers, so a tail from an earlier power-on period may be gone.
func (r *crashRun) attach(sys *multicore.System) {
	r.sys, r.halt = sys, nil
	if r.rc.Forensics != nil {
		r.ftail = forensics.NewAcceptTail(forensics.DefaultAcceptTail)
		sys.Device().AddAcceptObserver(r.ftail.Observe)
	}
}

// crashLive makes the down machine what the live one would be right after
// losing power with opt, accept tail included, building it on first use,
// and reports what the outage persisted.
func (r *crashRun) crashLive(opt multicore.CrashOptions) (*multicore.CrashReport, error) {
	if r.down == nil {
		down, err := r.build()
		if err != nil {
			return nil, err
		}
		r.down = down
		if r.rc.Forensics != nil {
			r.dtail = forensics.NewAcceptTail(forensics.DefaultAcceptTail)
			down.Device().AddAcceptObserver(r.dtail.Observe)
		}
	}
	r.dtail.CopyFrom(r.ftail)
	return r.down.CrashCopy(r.sys, opt)
}

// CrashVerdict is what one outage did and what recovery made of it. Every
// crash entry point returns it: RunTorturePoint, the torture sweeps,
// RunWithFailure and, one per outage, RunWithFailureSchedule and VerifyApp
// (the mutation gate reads the same records). Violation is
// the one verdict on the scheme's recovery contract; the other fields are
// the evidence it was reached from.
type CrashVerdict struct {
	// Point is the cut: the failure cycle, the fault and its nesting depth.
	Point TorturePoint `json:"point"`
	// Cycle is the crashed machine's clock at the cut.
	Cycle uint64 `json:"cycle"`
	// Completed reports the workload finished before the cut, so no
	// failure struck (the point degenerates to a plain run).
	Completed bool `json:"completed_before_failure,omitempty"`
	Injected  bool `json:"injected"` // the fault actually struck
	Damaged   bool `json:"damaged"`  // a tear or a byte-level mutation changed the dump
	// Detected is the error with which recovery refused the checkpoint,
	// nil when it did not refuse; one outside recovery's typed taxonomy is
	// itself a violation. JSON carries it as "detected" and its text as
	// "detected_as".
	Detected  error `json:"-"`
	Recovered bool  `json:"recovered"`
	// Attempts counts entries into the recovery protocol (1 for an
	// undisturbed recovery; +1 per nested outage).
	Attempts int                 `json:"recovery_attempts"`
	PerCore  []*recovery.Outcome `json:"per_core,omitempty"`

	CheckpointBytes int `json:"checkpoint_bytes"` // encoded dump size across cores
	// FlushedBytes is how much dirty data a flush-on-failure scheme (eADR)
	// pushed on residual energy.
	FlushedBytes int `json:"flushed_bytes"`
	// Inconsistencies counts words of the contract point's golden memory
	// that recovered NVM got wrong.
	Inconsistencies int `json:"inconsistencies"`
	// ArchConsistent reports the recovered register state matched the
	// golden model (true for schemes that do not checkpoint it).
	ArchConsistent bool `json:"arch_consistent"`
	// OracleChecked reports the lockstep oracle judged the recovered
	// image; OracleErr is its objection (JSON "oracle_error").
	OracleChecked bool  `json:"oracle_checked"`
	OracleErr     error `json:"-"`
	// Verifier names the check that found the violation.
	Verifier string `json:"verifier,omitempty"`
	// Violation is the contract breach, empty for a pass.
	Violation string `json:"violation,omitempty"`
	// Resumed is the run resumed after recovery to completion
	// (RunWithFailure only).
	Resumed *Result `json:"resumed,omitempty"`
}

// verdictJSON is a CrashVerdict's JSON: its fields plus its errors' text.
type verdictJSON struct {
	*crashRecord
	Detected    bool   `json:"detected"`
	DetectedAs  string `json:"detected_as,omitempty"`
	OracleError string `json:"oracle_error,omitempty"`
}

// crashRecord is CrashVerdict without its JSON methods.
type crashRecord CrashVerdict

// MarshalJSON formats the verdict's errors, which it keeps as values.
func (v *CrashVerdict) MarshalJSON() ([]byte, error) {
	return json.Marshal(verdictJSON{(*crashRecord)(v), v.Detected != nil, errText(v.Detected), errText(v.OracleErr)})
}

// UnmarshalJSON restores a verdict from its JSON, refusing unknown keys;
// its errors keep only their text.
func (v *CrashVerdict) UnmarshalJSON(b []byte) error {
	j := verdictJSON{crashRecord: (*crashRecord)(v)}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return err
	}
	v.Detected, v.OracleErr = nil, nil
	if j.Detected {
		v.Detected = errors.New(j.DetectedAs)
	}
	if j.OracleError != "" {
		v.OracleErr = errors.New(j.OracleError)
	}
	return nil
}

// fail records the contract breach violation, found by verifier.
func (v *CrashVerdict) fail(verifier, violation string) {
	v.Verifier, v.Violation = verifier, violation
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// cut runs the live machine to p.Cycle, cuts power to a copy of it there
// (tearing the dump for a TornCheckpoint fault), applies p's
// byte-level damage and nested outages, and recovers by the scheme's
// contract: log schemes validate the dump and rebuild the image from their
// own log, the others replay the CSQ. It then verifies the contract point,
// the register state and the oracle's verdict, and captures forensics on a
// violation. With resume, the live machine is replaced by a fresh one
// around the recovered copy's device, every thread resuming at its
// contract point. A lockstep divergence before the cut is returned as the
// error together with its verdict; any other error comes without one.
func (r *crashRun) cut(p TorturePoint, resume bool) (*CrashVerdict, error) {
	if err := r.rewind(p.Cycle); err != nil {
		return nil, err
	}
	hub := r.rc.hub()
	v := &CrashVerdict{Point: p, ArchConsistent: true}
	done, err := false, r.halt
	if err == nil {
		done, err = r.sys.RunUntil(p.Cycle)
	}
	v.Cycle = r.sys.Cycle()
	if err != nil {
		var de *oracle.DivergenceError
		if !errors.As(err, &de) {
			return nil, err
		}
		r.halt = err
		v.fail(forensics.KindLockstepDivergence, err.Error())
		div, _ := json.Marshal(de.Report)
		r.capture(r.sys, r.ftail, v, forensics.KindLockstepDivergence, div)
		return v, err
	}
	if done {
		v.Completed = true
		return v, nil
	}
	rep, err := r.crashLive(crashOptions(p))
	if err != nil {
		return nil, err
	}
	sys := r.down
	inj := fault.NewInjector(hub)
	if rep.Torn {
		v.Injected, v.Damaged = true, true
		inj.Injected(p.Fault, p.Cycle)
	}
	v.FlushedBytes = sys.LastCrashFlushBytes()
	dev := sys.Device()
	if p.Fault.ByteLevel() && dev.MutateCheckpoint(p.Fault.Mutate) {
		v.Injected, v.Damaged = true, true
		inj.Injected(p.Fault, p.Cycle)
	}

	// Recovery, re-entered from the top after each nested outage, must
	// converge: a completed recovery or a typed refusal of a damaged dump.
	scheme := sys.Scheme()
	txn := scheme.Contract() == persist.RecoverTxnBoundary
	nested := 0
	if p.Fault.Kind == fault.NestedOutage {
		nested = max(p.Depth, 1)
	}
	var images []*checkpoint.Image
	var at []int // each core's contract point: committed prefix or last marker
	for {
		v.Attempts++
		if v.Attempts > nested+4 {
			v.fail("recovery-convergence", "recovery did not converge")
			r.capture(sys, r.dtail, v, forensics.KindTortureViolation, nil)
			return v, nil
		}
		if images, v.Detected = recovery.LoadImages(dev, r.images); v.Detected != nil {
			break
		}
		r.images = images
		if nested > 0 {
			// Power fails again mid-recovery. Log recovery is idempotent
			// (truncate, then roll back or replay); CSQ replay applies only
			// the first Param entries of each image. Either way the
			// re-entered protocol starts from the top.
			nested--
			v.Injected = true
			inj.Injected(p.Fault, p.Cycle)
			if txn {
				_, v.Detected = scheme.Recover(dev, len(images))
			} else {
				for _, im := range images {
					n := 0
					if len(im.CSQ) > 0 {
						n = int(p.Fault.Param % uint64(len(im.CSQ)+1))
					}
					if _, v.Detected = recovery.ReplayN(dev, im, n); v.Detected != nil {
						break
					}
				}
			}
			if v.Detected != nil {
				break
			}
			continue
		}
		at, v.Detected = r.recoverByContract(images, txn, v)
		v.Recovered = v.Detected == nil
		break
	}
	if v.Detected != nil {
		inj.Detected(p.Fault, p.Cycle)
	}

	var div json.RawMessage
	switch {
	case v.Detected != nil && !recovery.IsDetection(v.Detected):
		v.fail("recovery-error", fmt.Sprintf("untyped recovery error: %v", v.Detected))
	case v.Detected != nil && !v.Damaged:
		// A nested outage strikes too, but leaves the dump intact: recovery
		// must not refuse it.
		v.fail("spurious-detection", fmt.Sprintf("spurious detection of an intact checkpoint: %s", v.Detected))
	case v.Recovered && v.Injected && p.Fault.Corrupting():
		v.fail("corruption-detection", "silently recovered a corrupt checkpoint")
	case v.Recovered:
		if div, err = r.verify(v, images, at); err != nil {
			return nil, err
		}
	}
	r.capture(sys, r.dtail, v, forensics.KindTortureViolation, div)
	if !v.Recovered {
		return v, nil
	}

	// Recovery is complete: invalidate the checkpoint area so a later
	// outage cannot be confused with this one, then resume each program
	// right after its contract point on a fresh machine around the
	// recovered device (the caches are cold, as after a real outage). The
	// device now belongs to the live machine, so the next cut builds
	// another copy.
	dev.ClearCheckpoint()
	if resume {
		cfg, w, err := assemble(r.rc, r.w)
		if err != nil {
			return nil, err
		}
		next, err := multicore.NewSystemResumed(cfg, w, dev, at)
		if err != nil {
			return nil, err
		}
		r.attach(next)
		r.down, r.dtail = nil, nil
	}
	return v, nil
}

// campaign runs the live machine to completion once, then cuts power at
// each cycle cuts picks from the run's length, in ascending order: the
// first cut resets the machine and each later one advances it from the
// cut before. Every cut is a fault-free torture point whose verdict equals
// RunTorturePoint's on a fresh machine; the verdicts come back in cut
// order. A run that fails returns its error and no result; a cut that
// fails ends the campaign with the verdicts before it.
func (r *crashRun) campaign(cuts func(runCycles uint64) []uint64) (*Result, []*CrashVerdict, error) {
	if err := r.rewind(0); err != nil {
		return nil, nil, err
	}
	if err := r.sys.Run(multicore.CycleBudget(r.rc.insts())); err != nil {
		return nil, nil, err
	}
	res := r.sys.Collect()
	var vs []*CrashVerdict
	for _, c := range cuts(res.Cycles) {
		v, err := r.torture(TorturePoint{Cycle: c})
		if err != nil {
			return res, vs, fmt.Errorf("cut at cycle %d: %w", c, err)
		}
		vs = append(vs, v)
	}
	return res, vs, nil
}

// crashOptions is how p's outage strikes: a torn-checkpoint fault's Param
// is the reservoir's share of the dump's energy demand in permille, reduced
// mod 1000 so the dump always tears.
func crashOptions(p TorturePoint) multicore.CrashOptions {
	var opt multicore.CrashOptions
	if p.Fault.Kind == fault.TornCheckpoint {
		opt.ShortfallPermille = 1000 - int(p.Fault.Param%1000)
	}
	return opt
}

// recoverByContract runs the scheme's recovery over decoded images and
// returns each core's contract point. Checkpoint-replay schemes replay each
// core's CSQ and resume at the committed prefix; transaction schemes
// validate the dump (a damaged one must still surface as a detection) but
// rebuild the image from their own durable log and resume at each core's
// last marker.
func (r *crashRun) recoverByContract(images []*checkpoint.Image, txn bool, v *CrashVerdict) ([]int, error) {
	sys := r.down
	at := make([]int, len(images))
	if txn {
		for _, im := range images {
			if err := recovery.ValidateImage(im); err != nil {
				return nil, err
			}
		}
		points, err := sys.Scheme().Recover(sys.Device(), len(images))
		if err != nil {
			return nil, err
		}
		at = points
	}
	for i, im := range images {
		prog := sys.Cores()[im.CoreID].Program()
		v.CheckpointBytes += im.EncodedLen()
		if txn {
			o := &recovery.Outcome{CoreID: im.CoreID, ResumeIndex: at[i]}
			if at[i] > 0 && at[i] <= prog.Len() {
				o.ResumePC = prog.Insts[at[i]-1].PC + 4
			}
			v.PerCore = append(v.PerCore, o)
			continue
		}
		o, err := recovery.RecoverObserved(sys.Device(), im, prog, r.rc.hub(), sys.Cycle())
		if err != nil {
			return nil, err
		}
		v.PerCore = append(v.PerCore, o)
		at[im.CoreID] = im.Committed
	}
	return at, nil
}

// verify checks a recovered image against the contract: every core's
// golden memory at its contract point, the recovered register state where
// the scheme checkpoints it, and the oracle's independent verdict. Schemes
// with no contract (baseline, DRAM-only, ReplayCache) are run to measure
// how badly they miss it, so the oracle does not judge them. It returns the
// oracle's divergence report for a flight-recorder bundle.
func (r *crashRun) verify(v *CrashVerdict, images []*checkpoint.Image, at []int) (json.RawMessage, error) {
	sys := r.down
	dev := sys.Device()
	committed := make([]int, len(images))
	for _, im := range images {
		committed[im.CoreID] = im.Committed
	}
	// One golden execution per core serves the driver's checks; the
	// oracle derives its own, so its verdict stays independent of this one.
	for id, c := range sys.Cores() {
		v.Inconsistencies += recovery.CountInconsistencies(dev, r.golden(id, c.Program(), at[id]))
	}
	if sys.Scheme().VerifiesArchState() {
		if r.ren == nil {
			r.ren = rename.New(sys.Config().Pipeline.Rename)
		}
		for _, im := range images {
			if err := recovery.RestoreRenamer(r.ren, im); err != nil {
				return nil, err
			}
			g := r.golden(im.CoreID, sys.Cores()[im.CoreID].Program(), im.Committed)
			if recovery.VerifyArchState(r.ren, g) != nil {
				v.ArchConsistent = false
			}
		}
	}
	if m := sys.Oracle(); m != nil {
		switch sys.Scheme().Contract() {
		case persist.RecoverCommittedPrefix:
			v.OracleChecked = true
			v.OracleErr = m.CheckRecovered(dev.Image(), committed, v.Cycle)
		case persist.RecoverTxnBoundary:
			v.OracleChecked = true
			v.OracleErr = m.CheckRecoveredAt(dev.Image(), at, v.Cycle)
		}
	}
	// The checks are ordered as the mutation gate names its catches: the
	// oracle's independent verdict, then the committed prefix, then the
	// register state.
	var div json.RawMessage
	switch {
	case v.OracleErr != nil:
		v.fail("oracle-recovery-check", v.OracleErr.Error())
		var de *oracle.DivergenceError
		if errors.As(v.OracleErr, &de) {
			div, _ = json.Marshal(de.Report)
		}
	case v.Inconsistencies > 0:
		v.fail("committed-prefix", fmt.Sprintf("committed-prefix violation: %d words lost", v.Inconsistencies))
	case !v.ArchConsistent:
		v.fail("arch-state", "recovered register state diverged from the golden model")
	}
	return div, nil
}

// golden returns isa.RunGolden(prog, n) for core: the run's golden model
// of core advanced to instruction n, or rerun from the start when n lies
// behind it or it ran another program.
func (r *crashRun) golden(core int, prog *isa.Program, n int) *isa.GoldenResult {
	for len(r.goldens) <= core {
		r.goldens = append(r.goldens, &isa.GoldenResult{Mem: isa.NewMapMemory()})
		r.goldenProgs = append(r.goldenProgs, nil)
	}
	g := r.goldens[core]
	if n < 0 || n > prog.Len() {
		n = prog.Len()
	}
	if g.Executed > n || r.goldenProgs[core] != prog {
		g.Mem.Reset()
		*g = isa.GoldenResult{Mem: g.Mem, StoreLog: g.StoreLog[:0]}
		r.goldenProgs[core] = prog
	}
	for g.Executed < n {
		isa.StepGolden(g, &prog.Insts[g.Executed], g.Executed)
	}
	return g
}

// capture snapshots a violation on sys into the flight recorder: the trace
// ring, the metrics registry, sys's NVM accept tail and the divergence
// report, at the instant the violation fires.
func (r *crashRun) capture(sys *multicore.System, tail *forensics.AcceptTail, v *CrashVerdict, kind string, div json.RawMessage) {
	if r.rc.Forensics == nil || v.Violation == "" {
		return
	}
	b := &forensics.Bundle{
		Meta: forensics.Meta{
			Kind:         kind,
			Reason:       v.Violation,
			Verifier:     v.Verifier,
			App:          r.rc.App,
			Scheme:       string(r.rc.Scheme),
			Point:        v.Point.String(),
			CaptureCycle: sys.Cycle(),
		},
		Divergence: div,
	}
	forensics.Snapshot(r.rc.hub(), tail, b)
	_ = r.rc.Forensics.Capture(b)
}
