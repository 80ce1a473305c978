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

// Limits on the exact-enumeration walk. The generator stays far below
// both; hand-written tests that exceed them get an explicit error rather
// than an open-ended search.
const (
	// MaxStoresPerCore bounds one core's store count (bitmask width).
	MaxStoresPerCore = 12
	// maxConfigs bounds the number of distinct (persisted-set, state)
	// configurations the walk may visit.
	maxConfigs = 1 << 22
)

// Model is the solved allowed-outcome set of one litmus test: every NVM
// state any prefix of any legal persist order can exhibit, and the subset
// reachable once every store has drained.
type Model struct {
	Addrs []uint64
	Cores []CoreProg

	addrIdx map[uint64]int
	allowed map[string]bool // states of any legal prefix
	final   map[string]bool // states with every store persisted
	configs int
}

// Key renders an NVM state (one value per model address, in Addrs order)
// as the canonical outcome key used throughout the engine: the hexadecimal
// values joined by single spaces.
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
	m := &Model{
		Addrs:   addrs,
		Cores:   cores,
		addrIdx: make(map[uint64]int, len(addrs)),
		allowed: make(map[string]bool),
		final:   make(map[string]bool),
	}
	for i, a := range addrs {
		if i > 0 && addrs[i-1] >= a {
			return nil, fmt.Errorf("px86: addresses must be strictly ascending")
		}
		m.addrIdx[a] = i
	}
	total := 0
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
		total += len(c.Stores)
	}
	if err := m.solve(); err != nil {
		return nil, err
	}
	_ = total
	return m, nil
}

// config is one node of the persist-interleaving walk: which stores of
// each core have persisted (bitmasks) and the resulting memory state.
type config struct {
	masks []uint32
	vals  []uint64
}

func (m *Model) configKey(c *config) string {
	var b strings.Builder
	for _, mk := range c.masks {
		b.WriteString(strconv.FormatUint(uint64(mk), 16))
		b.WriteByte('.')
	}
	b.WriteByte('|')
	b.WriteString(Key(c.vals))
	return b.String()
}

func (m *Model) full(c *config) bool {
	for ci := range m.Cores {
		if c.masks[ci] != uint32(1)<<len(m.Cores[ci].Stores)-1 {
			return false
		}
	}
	return true
}

// solve walks every legal persist interleaving, memoized on the full
// configuration, recording each visited memory state (and, for drained
// configurations, the final-state subset).
func (m *Model) solve() error {
	start := &config{masks: make([]uint32, len(m.Cores)), vals: make([]uint64, len(m.Addrs))}
	m.record(start)
	seen := map[string]bool{m.configKey(start): true}
	queue := []*config{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for ci := range m.Cores {
			prog := &m.Cores[ci]
			mask := cur.masks[ci]
			for j := range prog.Stores {
				if mask&(1<<j) != 0 || !prog.canPersistNext(mask, j) {
					continue
				}
				next := &config{
					masks: append([]uint32(nil), cur.masks...),
					vals:  append([]uint64(nil), cur.vals...),
				}
				next.masks[ci] |= 1 << j
				next.vals[m.addrIdx[prog.Stores[j].Addr]] = prog.Stores[j].Val
				k := m.configKey(next)
				if seen[k] {
					continue
				}
				seen[k] = true
				if m.configs++; m.configs > maxConfigs {
					return fmt.Errorf("px86: model exceeds %d configurations", maxConfigs)
				}
				m.record(next)
				queue = append(queue, next)
			}
		}
	}
	return nil
}

func (m *Model) record(c *config) {
	k := Key(c.vals)
	m.allowed[k] = true
	if m.full(c) {
		m.final[k] = true
	}
}

// Slot returns the index of addr among the model's addresses, and false
// for an address the model does not know.
func (m *Model) Slot(addr uint64) (int, bool) {
	i, ok := m.addrIdx[addr]
	return i, ok
}

// MemberKey reports whether the state with the outcome key (see Key) is
// reachable at some point of some legal persist order (the soundness check
// applies it to every observed NVM state, including crash images).
func (m *Model) MemberKey(key string) bool { return m.allowed[key] }

// FinalMemberKey reports whether the state with the outcome key is legal
// once every store has drained (applied to the post-run, post-drain NVM
// image).
func (m *Model) FinalMemberKey(key string) bool { return m.final[key] }

// Outcomes returns every allowed state key, sorted.
func (m *Model) Outcomes() []string { return sortedKeys(m.allowed) }

// FinalOutcomes returns every allowed drained-state key, sorted.
func (m *Model) FinalOutcomes() []string { return sortedKeys(m.final) }

// Configs returns the number of distinct persist configurations the
// solver visited (a size diagnostic for `ppalitmus explain`).
func (m *Model) Configs() int { return m.configs }

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
