// Package px86 is the axiomatic persistency model behind the litmus
// conformance engine ("Taming x86-TSO Persistency", Khyzha & Lahav,
// adapted to PPA's region/barrier primitives).
//
// The model describes which NVM states a small concurrent program may
// leave behind. Each core issues a program-order sequence of stores
// interleaved with persist barriers (PPA region boundaries: fences, sync
// primitives, and the implicit barrier an RMW carries). Two stores s_i,
// s_j of the same core with i < j are *persist-ordered* (s_i ⊑ s_j) iff
//
//   - they write the same address (per-location persist order: the
//     store buffer and the persist write buffer drain same-address
//     writes of one core in program order and may coalesce them, but
//     never swap them), or
//   - a barrier sits between them (everything before a region boundary
//     is durable before anything after it persists).
//
// Nothing orders stores of different cores: PPA regions are per-core and
// the paper's model (like Px86) has no inter-core persist edges without
// explicit synchronization, which these litmus programs do not model as
// ordering (each core's value stream is independent).
//
// A persisted state is *allowed* iff it is the last-writer-per-address
// snapshot of some prefix of some linear extension of ⊑. The model
// computes the exact allowed set by a memoized breadth-first walk over
// persist interleavings — per-address independence would be wrong (a
// 2+2W-shaped test with fences on both cores admits per-address
// candidate combinations that no linearization realizes), so the walk
// keeps the full (persisted-set, memory-state) configuration.
//
// The package holds only this model, which the litmus compiler builds
// against. The lockstep oracle (internal/oracle) applies the same per-core
// axioms to the one order a running machine produces, with rules of its
// own.
package px86

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Store is one program-order store of a core: 8-byte word address and the
// value the core's functional frontend computes for it.
type Store struct {
	Addr uint64 `json:"addr"`
	Val  uint64 `json:"val"`
}

// CoreProg is one core's persist-relevant event sequence: stores in
// program order plus barrier positions. A barrier at position b orders
// every store with index < b before every store with index >= b. An RMW
// contributes a barrier at its own position followed by its store.
type CoreProg struct {
	Stores   []Store `json:"stores"`
	Barriers []int   `json:"barriers"`
}

// Ordered reports the must-persist-before relation s_i ⊑ s_j for i < j
// within one core: same address, or a barrier between them.
func (c *CoreProg) Ordered(i, j int) bool {
	if i > j {
		i, j = j, i
	}
	if i == j {
		return false
	}
	if c.Stores[i].Addr == c.Stores[j].Addr {
		return true
	}
	for _, b := range c.Barriers {
		if i < b && b <= j {
			return true
		}
	}
	return false
}

// canPersistNext reports whether store j may be the core's next persist
// given the set of already-persisted stores (bitmask): every earlier
// store ordered before j must already be durable.
func (c *CoreProg) canPersistNext(mask uint32, j int) bool {
	for i := 0; i < j; i++ {
		if mask&(1<<i) == 0 && c.Ordered(i, j) {
			return false
		}
	}
	return true
}

// Limits on the exact-enumeration walk. The litmus format stays within
// all of them; a hand-written model that exceeds one gets an explicit error
// rather than an open-ended search.
const (
	// MaxCores bounds the number of cores (the width of a configuration).
	MaxCores = 4
	// MaxAddrs bounds the number of model addresses (the width of a State).
	MaxAddrs = 3
	// MaxStoresPerCore bounds one core's store count (bitmask width).
	MaxStoresPerCore = 12
	// maxConfigs bounds the number of distinct (persisted-set, state)
	// configurations the walk may visit.
	maxConfigs = 1 << 22
)

// State is an NVM state of a model: one value per model address, in Addrs
// order, and zero past the last address. It is comparable, so the solver
// and the litmus recorder key sets and counts by it; Key formats one for a
// report.
type State [MaxAddrs]uint64

// Model is the solved allowed-outcome set of one litmus test: every NVM
// state any prefix of any legal persist order can exhibit, and the subset
// reachable once every store has drained.
type Model struct {
	Addrs []uint64
	Cores []CoreProg

	addrIdx map[uint64]int
	allowed map[State]bool // states of any legal prefix
	final   map[State]bool // states with every store persisted
	configs int
}

// Key renders an NVM state (one value per model address, in Addrs order)
// as the canonical outcome key the engine reports: the hexadecimal values
// joined by single spaces.
func Key(vals []uint64) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatUint(v, 16))
	}
	return b.String()
}

// NewModel solves the allowed-outcome sets for the given per-core
// programs over the given address set (ascending, word-aligned).
func NewModel(cores []CoreProg, addrs []uint64) (*Model, error) {
	if len(cores) > MaxCores {
		return nil, fmt.Errorf("px86: %d cores (max %d)", len(cores), MaxCores)
	}
	if len(addrs) > MaxAddrs {
		return nil, fmt.Errorf("px86: %d addresses (max %d)", len(addrs), MaxAddrs)
	}
	m := &Model{
		Addrs:   addrs,
		Cores:   cores,
		addrIdx: make(map[uint64]int, len(addrs)),
		allowed: make(map[State]bool),
		final:   make(map[State]bool),
	}
	for i, a := range addrs {
		if i > 0 && addrs[i-1] >= a {
			return nil, fmt.Errorf("px86: addresses must be strictly ascending")
		}
		m.addrIdx[a] = i
	}
	for ci := range cores {
		c := &cores[ci]
		if len(c.Stores) > MaxStoresPerCore {
			return nil, fmt.Errorf("px86: core %d has %d stores (max %d)", ci, len(c.Stores), MaxStoresPerCore)
		}
		for _, s := range c.Stores {
			if _, ok := m.addrIdx[s.Addr]; !ok {
				return nil, fmt.Errorf("px86: core %d stores to %#x, not a model address", ci, s.Addr)
			}
		}
		for _, b := range c.Barriers {
			if b < 0 || b > len(c.Stores) {
				return nil, fmt.Errorf("px86: core %d barrier position %d out of range", ci, b)
			}
		}
	}
	if err := m.solve(); err != nil {
		return nil, err
	}
	return m, nil
}

// config is one node of the persist-interleaving walk: which stores of
// each core have persisted (bitmasks) and the resulting memory state. It
// is its own memo key.
type config struct {
	masks [MaxCores]uint16
	vals  State
}

func (m *Model) full(c *config) bool {
	for ci := range m.Cores {
		if c.masks[ci] != uint16(1)<<len(m.Cores[ci].Stores)-1 {
			return false
		}
	}
	return true
}

// solve walks every legal persist interleaving, memoized on the full
// configuration, recording each visited memory state (and, for drained
// configurations, the final-state subset).
func (m *Model) solve() error {
	var start config
	m.record(&start)
	seen := map[config]bool{start: true}
	queue := []config{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for ci := range m.Cores {
			prog := &m.Cores[ci]
			mask := uint32(cur.masks[ci])
			for j := range prog.Stores {
				if mask&(1<<j) != 0 || !prog.canPersistNext(mask, j) {
					continue
				}
				next := cur
				next.masks[ci] |= 1 << j
				next.vals[m.addrIdx[prog.Stores[j].Addr]] = prog.Stores[j].Val
				if seen[next] {
					continue
				}
				seen[next] = true
				if m.configs++; m.configs > maxConfigs {
					return fmt.Errorf("px86: model exceeds %d configurations", maxConfigs)
				}
				m.record(&next)
				queue = append(queue, next)
			}
		}
	}
	return nil
}

func (m *Model) record(c *config) {
	m.allowed[c.vals] = true
	if m.full(c) {
		m.final[c.vals] = true
	}
}

// Slot returns the index of addr among the model's addresses, and false
// for an address the model does not know.
func (m *Model) Slot(addr uint64) (int, bool) {
	i, ok := m.addrIdx[addr]
	return i, ok
}

// Allows reports whether state s is reachable at some point of some legal
// persist order (the soundness check applies it to every observed NVM
// state, including crash images).
func (m *Model) Allows(s State) bool { return m.allowed[s] }

// AllowsFinal reports whether state s is legal once every store has drained
// (applied to the post-run, post-drain NVM image).
func (m *Model) AllowsFinal(s State) bool { return m.final[s] }

// Outcomes returns every allowed state key, sorted.
func (m *Model) Outcomes() []string { return m.sortedKeys(m.allowed) }

// FinalOutcomes returns every allowed drained-state key, sorted.
func (m *Model) FinalOutcomes() []string { return m.sortedKeys(m.final) }

// Configs returns the number of distinct persist configurations the
// solver visited (a size diagnostic for `ppalitmus explain`).
func (m *Model) Configs() int { return m.configs }

func (m *Model) sortedKeys(set map[State]bool) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, Key(s[:len(m.Addrs)]))
	}
	sort.Strings(out)
	return out
}
