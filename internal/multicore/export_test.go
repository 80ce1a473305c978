package multicore

import "ppa/internal/persist"

// Step advances s one cycle by the advance loop's own step: every unit
// with cores, the memory system and the backends alone without.
func Step(s *System, cores bool) error { return s.step(cores) }

// Backends exposes the machine's persist backends.
func Backends(s *System) []persist.Backend { return s.backends }
