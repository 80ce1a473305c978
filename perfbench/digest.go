package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"ppa/internal/isa"
	"ppa/internal/stats"
)

// referenceJSON holds the output digests recorded for zoo-detailed and
// sampled at the commit that last changed simulated behaviour:
// workload -> seed -> config key -> digest. Regenerate with
// -record-reference after a change that is meant to alter results.
//
//go:embed testdata/reference.json
var referenceJSON []byte

type referenceTable map[string]map[string]map[string]string

func loadReference() (referenceTable, error) {
	var ref referenceTable
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("decode embedded reference digests: %w", err)
	}
	return ref, nil
}

// writeImage hashes an NVM image's written words in address order.
func writeImage(h interface{ Write([]byte) (int, error) }, img *isa.MapMemory) {
	type word struct{ addr, val uint64 }
	var words []word
	img.Range(func(a, v uint64) bool {
		words = append(words, word{a, v})
		return true
	})
	sort.Slice(words, func(i, j int) bool { return words[i].addr < words[j].addr })
	var b [16]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:8], w.addr)
		binary.LittleEndian.PutUint64(b[8:], w.val)
		_, _ = h.Write(b[:]) // hash writes never fail
	}
}

// outputDigest hashes a run's simulated result fields (JSON) together
// with its final NVM image.
func outputDigest(result any, img *isa.MapMemory) (string, error) {
	b, err := json.Marshal(result)
	if err != nil {
		return "", fmt.Errorf("encode result for digest: %w", err)
	}
	h := sha256.New()
	_, _ = h.Write(b)
	if img != nil {
		writeImage(h, img)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checker counts attempted and failed operations and holds the output
// checks: every repeat of a config must reproduce its first digest, and
// the first digest is compared with the recorded reference.
type checker struct {
	attempted, failed int
	failures          []string
	digests           map[string]string
	nondeterministic  []string
	ref               map[string]string
	refMatch          int
	refMismatch       []string
	refMissing        int
	problems          []string // other output checks that failed
}

func newChecker(ref referenceTable, workload string, seed int64) *checker {
	c := &checker{digests: make(map[string]string)}
	if ref != nil {
		c.ref = ref[workload][strconv.FormatInt(seed, 10)]
	}
	return c
}

// fail counts one failed operation.
func (c *checker) fail(key string, err error) {
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, key+": "+err.Error())
	}
}

// problem records a failed output check.
func (c *checker) problem(format string, args ...any) {
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// add folds a probe pass's counts and failed checks into c, prefixed with
// the probed workload's name.
func (c *checker) add(name string, p *checker) {
	c.attempted += p.attempted
	c.failed += p.failed
	for _, f := range p.failures {
		c.failures = append(c.failures, name+" "+f)
	}
	for _, k := range p.nondeterministic {
		c.nondeterministic = append(c.nondeterministic, name+" "+k)
	}
	for _, q := range p.problems {
		c.problem("%s %s", name, q)
	}
}

// observe records a config's output digest.
func (c *checker) observe(key, dig string) {
	first, seen := c.digests[key]
	if seen {
		if first != dig {
			c.nondeterministic = append(c.nondeterministic, key)
		}
		return
	}
	c.digests[key] = dig
	if c.ref == nil {
		return
	}
	switch want, ok := c.ref[key]; {
	case !ok:
		c.refMissing++
	case want == dig:
		c.refMatch++
	default:
		c.refMismatch = append(c.refMismatch, key)
	}
}

// correct reports whether every operation succeeded and every output
// check held. A reference mismatch is reported but not counted: a change
// that means to alter simulated results re-records the reference.
func (c *checker) correct() bool {
	return c.failed == 0 && len(c.nondeterministic) == 0 && len(c.problems) == 0
}

func (c *checker) report() map[string]any {
	ref := "no reference recorded for this seed"
	if c.ref != nil {
		ref = fmt.Sprintf("%d match, %d mismatch, %d missing", c.refMatch, len(c.refMismatch), c.refMissing)
	}
	out := map[string]any{
		"attempted": c.attempted,
		"failed":    c.failed,
		"fail_frac": stats.Ratio(float64(c.failed), float64(c.attempted)),
		"reference": ref,
		"configs":   len(c.digests),
	}
	if len(c.digests) > 0 {
		out["digest"] = combinedDigest(c.digests)
	}
	if len(c.failures) > 0 {
		out["failures"] = c.failures
	}
	if len(c.nondeterministic) > 0 {
		out["nondeterministic"] = c.nondeterministic
	}
	if len(c.refMismatch) > 0 {
		out["reference_mismatch"] = c.refMismatch
	}
	if len(c.problems) > 0 {
		out["problems"] = c.problems
	}
	return out
}

// combinedDigest folds per-config digests into one, in key order.
func combinedDigest(d map[string]string) string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, d[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// recordReference runs zoo-detailed and sampled once per seed and writes
// every config's digest. seeds is a comma list of seeds and lo-hi ranges.
func recordReference(path, seeds string) error {
	list, err := parseSeeds(seeds)
	if err != nil {
		return err
	}
	ref := referenceTable{"zoo-detailed": {}, "sampled": {}}
	for _, seed := range list {
		key := strconv.FormatInt(seed, 10)
		zoo, err := zooDigests(seed)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		ref["zoo-detailed"][key] = zoo
		smp, err := sampledDigests(seed)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		ref["sampled"][key] = smp
		fmt.Fprintf(os.Stderr, "recorded seed %d\n", seed)
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		a, b, ok := strings.Cut(part, "-")
		if !ok {
			b = a
		}
		lo, err := strconv.ParseInt(a, 10, 64)
		hi, err2 := strconv.ParseInt(b, 10, 64)
		if err != nil || err2 != nil || hi < lo {
			return nil, fmt.Errorf("bad seed list %q (want seeds or lo-hi ranges, comma-separated)", s)
		}
		for seed := lo; seed <= hi; seed++ {
			out = append(out, seed)
		}
	}
	return out, nil
}

func zooDigests(seed int64) (map[string]string, error) {
	ss, err := zooSpecs(seed)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(ss))
	for _, s := range ss {
		res, img, err := runDetailed(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.key(), err)
		}
		if out[s.key()], err = outputDigest(res, img); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func sampledDigests(seed int64) (map[string]string, error) {
	ss, err := sampledSpecs(seed)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(ss))
	for _, s := range ss {
		res, img, err := runSampledSpec(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.key(), err)
		}
		if out[s.key()], err = outputDigest(res, img); err != nil {
			return nil, err
		}
	}
	return out, nil
}
