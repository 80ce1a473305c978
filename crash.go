package ppa

import (
	"encoding/json"
	"errors"
	"fmt"

	"ppa/internal/checkpoint"
	"ppa/internal/fault"
	"ppa/internal/forensics"
	"ppa/internal/multicore"
	"ppa/internal/oracle"
	"ppa/internal/persist"
	"ppa/internal/recovery"
	"ppa/internal/workload"
)

// This file is the crash driver: the one place that cuts power, damages
// what the outage left behind, recovers under the scheme's recovery
// contract, verifies the result and resumes. RunWithFailure,
// RunWithFailureSchedule and RunTorturePoint are parameterizations of it.

// crashRun is a machine under test plus what the driver carries across its
// outages: the run's configuration, its workload and the flight recorder's
// accept tap.
type crashRun struct {
	rc    RunConfig
	w     *workload.Workload
	sys   *multicore.System
	ftail *forensics.AcceptTail
}

// newCrashRun builds the machine under test for rc on w, rc's workload
// generated earlier, or on a workload it generates when w is nil.
func newCrashRun(rc RunConfig, w *workload.Workload) (*crashRun, error) {
	cfg, w, err := assemble(rc, w)
	if err != nil {
		return nil, err
	}
	sys, err := multicore.NewSystem(cfg, w)
	if err != nil {
		return nil, err
	}
	r := &crashRun{rc: rc, w: w}
	r.attach(sys)
	return r, nil
}

// attach makes sys the machine under test. With a flight recorder, a fresh
// accept tail taps its device: a lockstep machine's oracle replaces the
// device's observers, so a tail from an earlier power-on period may be gone.
func (r *crashRun) attach(sys *multicore.System) {
	r.sys = sys
	if r.rc.Forensics != nil {
		r.ftail = forensics.NewAcceptTail(forensics.DefaultAcceptTail)
		sys.Device().AddAcceptObserver(r.ftail.Observe)
	}
}

// crashVerdict is what one outage did and what recovery made of it.
type crashVerdict struct {
	cycle     uint64 // the crashed machine's clock at the cut
	completed bool   // the workload finished before the cut
	injected  bool   // the fault actually struck
	detected  error  // recovery refused the checkpoint
	recovered bool
	attempts  int // entries into the recovery protocol
	perCore   []*recovery.Outcome

	checkpointBytes int
	flushedBytes    int
	// inconsistencies counts words of the contract point's golden memory
	// that recovered NVM got wrong.
	inconsistencies int
	archConsistent  bool
	oracleChecked   bool
	oracleErr       error
	// violation is the contract breach, empty for a pass.
	violation string
}

// cut runs the machine to p.Cycle, cuts power there (tearing the dump for a
// TornCheckpoint fault), applies p's byte-level damage and nested outages,
// and recovers by the scheme's contract: log schemes validate the dump and
// rebuild the image from their own log, the others replay the CSQ. It then
// verifies the contract point, the register state and the oracle's verdict,
// and captures forensics on a violation. With resume, a recovered machine is
// replaced by a fresh one around the surviving device, every thread resuming
// at its contract point. A lockstep divergence before the cut is returned as
// the error together with its verdict; any other error comes without one.
func (r *crashRun) cut(p TorturePoint, resume bool) (*crashVerdict, error) {
	sys, hub := r.sys, r.rc.hub()
	v := &crashVerdict{archConsistent: true}
	done, err := sys.RunUntil(p.Cycle)
	v.cycle = sys.Cycle()
	if err != nil {
		var de *oracle.DivergenceError
		if !errors.As(err, &de) {
			return nil, err
		}
		v.violation = err.Error()
		div, _ := json.Marshal(de.Report)
		r.capture(v, p, forensics.KindLockstepDivergence, div)
		return v, err
	}
	if done {
		v.completed = true
		return v, nil
	}

	// Cut power. A torn-checkpoint fault's Param is the reservoir's share
	// of the dump's energy demand in permille, reduced mod 1000 so the
	// dump always tears.
	var opt multicore.CrashOptions
	if p.Fault.Kind == fault.TornCheckpoint {
		opt.ShortfallPermille = 1000 - int(p.Fault.Param%1000)
	}
	inj := fault.NewInjector(hub)
	if sys.CrashWithOptions(opt).Torn {
		v.injected = true
		inj.Injected(p.Fault, p.Cycle)
	}
	v.flushedBytes = sys.LastCrashFlushBytes()
	dev := sys.Device()
	if p.Fault.ByteLevel() && dev.MutateCheckpoint(p.Fault.Mutate) {
		v.injected = true
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
		v.attempts++
		if v.attempts > nested+4 {
			v.violation = "recovery did not converge"
			r.capture(v, p, forensics.KindTortureViolation, nil)
			return v, nil
		}
		if images, v.detected = recovery.LoadImages(dev); v.detected != nil {
			break
		}
		if nested > 0 {
			// Power fails again mid-recovery. Log recovery is idempotent
			// (truncate, then roll back or replay); CSQ replay applies only
			// the first Param entries of each image. Either way the
			// re-entered protocol starts from the top.
			nested--
			v.injected = true
			inj.Injected(p.Fault, p.Cycle)
			if txn {
				_, v.detected = scheme.Recover(dev, len(images))
			} else {
				for _, im := range images {
					n := 0
					if len(im.CSQ) > 0 {
						n = int(p.Fault.Param % uint64(len(im.CSQ)+1))
					}
					if _, v.detected = recovery.ReplayN(dev, im, n); v.detected != nil {
						break
					}
				}
			}
			if v.detected != nil {
				break
			}
			continue
		}
		at, v.detected = r.recoverByContract(images, txn, v)
		v.recovered = v.detected == nil
		break
	}
	if v.detected != nil {
		inj.Detected(p.Fault, p.Cycle)
	}

	var div json.RawMessage
	switch {
	case v.detected != nil && !recovery.IsDetection(v.detected):
		v.violation = fmt.Sprintf("untyped recovery error: %v", v.detected)
	case v.detected != nil && !v.injected:
		v.violation = fmt.Sprintf("spurious detection of an intact checkpoint: %s", v.detected)
	case v.recovered && v.injected && p.Fault.Corrupting():
		v.violation = "silently recovered a corrupt checkpoint"
	case v.recovered:
		if div, err = r.verify(v, images, at); err != nil {
			return nil, err
		}
	}
	r.capture(v, p, forensics.KindTortureViolation, div)
	if !v.recovered {
		return v, nil
	}

	// Recovery is complete: invalidate the checkpoint area so a later
	// outage cannot be confused with this one, then resume each program
	// right after its contract point on a fresh machine (the caches are
	// cold, as after a real outage).
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
	}
	return v, nil
}

// recoverByContract runs the scheme's recovery over decoded images and
// returns each core's contract point. Checkpoint-replay schemes replay each
// core's CSQ and resume at the committed prefix; transaction schemes
// validate the dump (a damaged one must still surface as a detection) but
// rebuild the image from their own durable log and resume at each core's
// last marker.
func (r *crashRun) recoverByContract(images []*checkpoint.Image, txn bool, v *crashVerdict) ([]int, error) {
	sys := r.sys
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
		v.checkpointBytes += len(im.Encode())
		if txn {
			o := &recovery.Outcome{CoreID: im.CoreID, ResumeIndex: at[i]}
			if at[i] > 0 && at[i] <= prog.Len() {
				o.ResumePC = prog.Insts[at[i]-1].PC + 4
			}
			v.perCore = append(v.perCore, o)
			continue
		}
		o, err := recovery.RecoverObserved(sys.Device(), im, prog, r.rc.hub(), sys.Cycle())
		if err != nil {
			return nil, err
		}
		v.perCore = append(v.perCore, o)
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
func (r *crashRun) verify(v *crashVerdict, images []*checkpoint.Image, at []int) (json.RawMessage, error) {
	sys := r.sys
	dev := sys.Device()
	committed := make([]int, len(images))
	for _, im := range images {
		committed[im.CoreID] = im.Committed
	}
	for id, c := range sys.Cores() {
		v.inconsistencies += recovery.CountInconsistencies(dev, c.Program(), at[id])
	}
	if sys.Scheme().VerifiesArchState() {
		for _, im := range images {
			ren, err := recovery.RestoreRenamer(sys.Config().Pipeline.Rename, im)
			if err != nil {
				return nil, err
			}
			if recovery.VerifyArchState(ren, sys.Cores()[im.CoreID].Program(), im.Committed) != nil {
				v.archConsistent = false
			}
		}
	}
	if m := sys.Oracle(); m != nil {
		switch sys.Scheme().Contract() {
		case persist.RecoverCommittedPrefix:
			v.oracleChecked = true
			v.oracleErr = m.CheckRecovered(dev.Image(), committed)
		case persist.RecoverTxnBoundary:
			v.oracleChecked = true
			v.oracleErr = m.CheckRecoveredAt(dev.Image(), at)
		}
	}
	var div json.RawMessage
	switch {
	case v.inconsistencies > 0:
		v.violation = fmt.Sprintf("committed-prefix violation: %d words lost", v.inconsistencies)
	case !v.archConsistent:
		v.violation = "recovered register state diverged from the golden model"
	case v.oracleErr != nil:
		v.violation = v.oracleErr.Error()
		var de *oracle.DivergenceError
		if errors.As(v.oracleErr, &de) {
			div, _ = json.Marshal(de.Report)
		}
	}
	return div, nil
}

// capture snapshots a violation into the flight recorder: the trace ring,
// the metrics registry, the NVM accept tail and the divergence report, at
// the instant the violation fires.
func (r *crashRun) capture(v *crashVerdict, p TorturePoint, kind string, div json.RawMessage) {
	if r.rc.Forensics == nil || v.violation == "" {
		return
	}
	b := &forensics.Bundle{
		Meta: forensics.Meta{
			Kind:         kind,
			Reason:       v.violation,
			App:          r.rc.App,
			Scheme:       string(r.rc.Scheme),
			Point:        p.String(),
			CaptureCycle: r.sys.Cycle(),
		},
		Divergence: div,
	}
	forensics.Snapshot(r.rc.hub(), r.ftail, b)
	_ = r.rc.Forensics.Capture(b)
}
