// Package litmus is the Px86 persistency-model conformance engine: a
// generator and compact text format for small concurrent persist litmus
// tests, an exact axiomatic allowed-outcome solver (internal/litmus/px86),
// and a harness that runs each test through the real simulator under
// deterministic schedule perturbation, classifying every observed NVM
// accept-stream outcome as allowed or forbidden.
package litmus

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ppa/internal/litmus/px86"
)

// OpKind is one litmus operation kind.
type OpKind int

const (
	// OpStore writes a value to an address slot.
	OpStore OpKind = iota
	// OpRMW atomically adds to an address slot; a region boundary.
	OpRMW
	// OpFence is a memory fence; a region boundary.
	OpFence
	// OpSync is a high-level synchronization point; a region boundary.
	OpSync
)

// Layouts map address slots to simulated addresses.
const (
	// LayoutSplit places each address slot on its own cache line.
	LayoutSplit = "split"
	// LayoutPacked packs every address slot into one cache line
	// (adjacent words), stressing line coalescing in the persist path.
	LayoutPacked = "packed"
)

// Op is one operation of one core's program.
type Op struct {
	Kind OpKind `json:"kind"`
	// Addr is the address-slot index (stores and RMWs only).
	Addr int `json:"addr,omitempty"`
	// Val is the stored value (OpStore) or addend (OpRMW). 0 means
	// auto-assign: the compiler gives every auto op a distinct
	// power-of-two value so observed words identify their writer.
	Val uint64 `json:"val,omitempty"`
}

// Test is one persist litmus test.
type Test struct {
	Name string `json:"name"`
	// NAddrs is the number of shared address slots (1–3).
	NAddrs int `json:"naddrs"`
	// Layout is LayoutSplit or LayoutPacked.
	Layout string `json:"layout"`
	// Cores holds each core's program (1–4 cores).
	Cores [][]Op `json:"cores"`
}

// Format limits. The generator stays within 2–4 cores and 2–6
// operations; the format accepts slightly wider shapes so regression
// corpora can pin single-core edge cases. The core and address limits are
// the solver's, whose fixed-size states and configurations they size.
const (
	MaxCores      = px86.MaxCores
	MaxAddrs      = px86.MaxAddrs
	MaxOpsPerCore = 8
	MaxOps        = 24
)

// Validate checks the test's shape against the format limits.
func (t *Test) Validate() error {
	if !validName(t.Name) {
		return fmt.Errorf("litmus %q: name must be non-empty [A-Za-z0-9._-]", t.Name)
	}
	if len(t.Cores) < 1 || len(t.Cores) > MaxCores {
		return fmt.Errorf("litmus %s: %d cores (want 1..%d)", t.Name, len(t.Cores), MaxCores)
	}
	if t.NAddrs < 1 || t.NAddrs > MaxAddrs {
		return fmt.Errorf("litmus %s: %d address slots (want 1..%d)", t.Name, t.NAddrs, MaxAddrs)
	}
	if t.Layout != LayoutSplit && t.Layout != LayoutPacked {
		return fmt.Errorf("litmus %s: layout %q (want %s|%s)", t.Name, t.Layout, LayoutSplit, LayoutPacked)
	}
	total := 0
	for ci, ops := range t.Cores {
		if len(ops) == 0 || len(ops) > MaxOpsPerCore {
			return fmt.Errorf("litmus %s: core %d has %d ops (want 1..%d)", t.Name, ci, len(ops), MaxOpsPerCore)
		}
		for oi, op := range ops {
			switch op.Kind {
			case OpStore, OpRMW:
				if op.Addr < 0 || op.Addr >= t.NAddrs {
					return fmt.Errorf("litmus %s: core %d op %d: address slot %d out of range", t.Name, ci, oi, op.Addr)
				}
			case OpFence, OpSync:
				if op.Addr != 0 || op.Val != 0 {
					return fmt.Errorf("litmus %s: core %d op %d: barrier carries operands", t.Name, ci, oi)
				}
			default:
				return fmt.Errorf("litmus %s: core %d op %d: unknown kind %d", t.Name, ci, oi, op.Kind)
			}
		}
		total += len(ops)
	}
	if total > MaxOps {
		return fmt.Errorf("litmus %s: %d ops total (max %d)", t.Name, total, MaxOps)
	}
	return nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Encode renders the test in the canonical text format:
//
//	litmus mp-fence
//	cores 2 addrs 2 layout split
//	p0: st0 fe st1
//	p1: st0=5 rmw1 sy
//
// Tokens: st<slot>[=<val>] store, rmw<slot>[=<addend>] atomic add,
// fe fence, sy sync. DecodeCorpus(Encode(t)) round-trips exactly.
func Encode(t *Test) string {
	var b strings.Builder
	fmt.Fprintf(&b, "litmus %s\n", t.Name)
	fmt.Fprintf(&b, "cores %d addrs %d layout %s\n", len(t.Cores), t.NAddrs, t.Layout)
	for ci, ops := range t.Cores {
		fmt.Fprintf(&b, "p%d:", ci)
		for _, op := range ops {
			b.WriteByte(' ')
			b.WriteString(encodeOp(op))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func encodeOp(op Op) string {
	switch op.Kind {
	case OpStore, OpRMW:
		mn := "st"
		if op.Kind == OpRMW {
			mn = "rmw"
		}
		s := mn + strconv.Itoa(op.Addr)
		if op.Val != 0 {
			s += "=" + strconv.FormatUint(op.Val, 10)
		}
		return s
	case OpFence:
		return "fe"
	default:
		return "sy"
	}
}

// EncodeCorpus renders tests back to back, separated by blank lines.
func EncodeCorpus(tests []*Test) string {
	parts := make([]string, len(tests))
	for i, t := range tests {
		parts[i] = Encode(t)
	}
	return strings.Join(parts, "\n")
}

// DecodeCorpus parses a sequence of tests. Each test starts at a
// "litmus <name>" line; names must be unique within the corpus.
func DecodeCorpus(data string) ([]*Test, error) {
	var tests []*Test
	var cur *Test
	wantCores := -1
	flush := func() error {
		if cur == nil {
			return nil
		}
		if len(cur.Cores) != wantCores {
			return fmt.Errorf("litmus %s: header declares %d cores, found %d programs", cur.Name, wantCores, len(cur.Cores))
		}
		if err := cur.Validate(); err != nil {
			return err
		}
		tests = append(tests, cur)
		cur = nil
		return nil
	}
	for ln, raw := range strings.Split(data, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "litmus":
			if err := flush(); err != nil {
				return nil, err
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("litmus: line %d: want \"litmus <name>\"", ln+1)
			}
			cur = &Test{Name: fields[1]}
			wantCores = -1
		case cur == nil:
			return nil, fmt.Errorf("litmus: line %d: content before \"litmus <name>\" header", ln+1)
		case fields[0] == "cores":
			if wantCores != -1 {
				return nil, fmt.Errorf("litmus %s: line %d: duplicate cores line", cur.Name, ln+1)
			}
			if len(fields) != 6 || fields[2] != "addrs" || fields[4] != "layout" {
				return nil, fmt.Errorf("litmus %s: line %d: want \"cores <n> addrs <k> layout <split|packed>\"", cur.Name, ln+1)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("litmus %s: line %d: bad core count %q", cur.Name, ln+1, fields[1])
			}
			k, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("litmus %s: line %d: bad address count %q", cur.Name, ln+1, fields[3])
			}
			wantCores = n
			cur.NAddrs = k
			cur.Layout = fields[5]
		default:
			if wantCores == -1 {
				return nil, fmt.Errorf("litmus %s: line %d: program before cores line", cur.Name, ln+1)
			}
			label := fmt.Sprintf("p%d:", len(cur.Cores))
			if fields[0] != label {
				return nil, fmt.Errorf("litmus %s: line %d: want program label %q, got %q", cur.Name, ln+1, label, fields[0])
			}
			if len(fields) == 1 {
				return nil, fmt.Errorf("litmus %s: line %d: empty program", cur.Name, ln+1)
			}
			ops := make([]Op, 0, len(fields)-1)
			for _, tok := range fields[1:] {
				op, err := decodeOp(tok)
				if err != nil {
					return nil, fmt.Errorf("litmus %s: line %d: %v", cur.Name, ln+1, err)
				}
				ops = append(ops, op)
			}
			cur.Cores = append(cur.Cores, ops)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(tests) == 0 {
		return nil, fmt.Errorf("litmus: no tests found")
	}
	seen := make(map[string]bool, len(tests))
	for _, t := range tests {
		if seen[t.Name] {
			return nil, fmt.Errorf("litmus: duplicate test name %q", t.Name)
		}
		seen[t.Name] = true
	}
	return tests, nil
}

func decodeOp(tok string) (Op, error) {
	switch tok {
	case "fe":
		return Op{Kind: OpFence}, nil
	case "sy":
		return Op{Kind: OpSync}, nil
	}
	var kind OpKind
	var rest string
	switch {
	case strings.HasPrefix(tok, "rmw"):
		kind, rest = OpRMW, tok[3:]
	case strings.HasPrefix(tok, "st"):
		kind, rest = OpStore, tok[2:]
	default:
		return Op{}, fmt.Errorf("unknown op %q", tok)
	}
	slotStr, valStr, hasVal := strings.Cut(rest, "=")
	slot, err := strconv.Atoi(slotStr)
	if err != nil || slot < 0 {
		return Op{}, fmt.Errorf("bad address slot in %q", tok)
	}
	op := Op{Kind: kind, Addr: slot}
	if hasVal {
		v, err := strconv.ParseUint(valStr, 10, 64)
		if err != nil || v == 0 {
			return Op{}, fmt.Errorf("bad value in %q (explicit values are nonzero decimals)", tok)
		}
		op.Val = v
	}
	return op, nil
}

// Names returns the corpus's test names, sorted (used by CLI listings).
func Names(tests []*Test) []string {
	names := make([]string, len(tests))
	for i, t := range tests {
		names[i] = t.Name
	}
	sort.Strings(names)
	return names
}
