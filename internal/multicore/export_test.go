package multicore

import "ppa/internal/persist"

// Step advances s one cycle by the advance loop's own step: every unit
// with cores, the memory system and the backends alone without.
func Step(s *System, cores bool) error { return s.step(cores) }

// Backends exposes the machine's persist backends.
func Backends(s *System) []persist.Backend { return s.backends }

// StartWindows starts ss's next window on its window machine, as RunWindow
// starts it, and on the window machine of a new sampled run over the same
// configuration and workload that shares ss's engine, positions and
// warm-up models and holds what ss's device holds. It returns both
// machines, restarted and new.
func StartWindows(ss *SampledSystem) (restarted, fresh *System, err error) {
	f, err := NewSampled(ss.sys.cfg, ss.sys.w, ss.sc)
	if err != nil {
		return nil, nil, err
	}
	f.engine, f.pos, f.warm = ss.engine, ss.pos, ss.warm
	f.sys.dev.CrashCopyFrom(ss.sys.dev)
	if _, _, err := ss.startWindow(); err != nil {
		return nil, nil, err
	}
	if _, _, err := f.startWindow(); err != nil {
		return nil, nil, err
	}
	return ss.sys, f.sys, nil
}
