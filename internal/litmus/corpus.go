package litmus

// conformanceCorpusText is the curated built-in corpus: the classic persist
// litmus shapes (MP, SB, 2+2W), the paper's region-barrier idiom, the two
// edge cases the oracle's persist rules once regressed on (coalescing
// subsumption, idempotent re-accept), and the asymmetric
// shapes that expose the litmus-only seeded bugs — same-word coalescing
// under multicore (cache-coalesce-stale-word) and a barrier armed while
// the sibling core's queue is already dry
// (pipeline-barrier-snapshot-cross-core).
const conformanceCorpusText = `
# Message passing: the flag (slot 1) must never persist before the data
# (slot 0) it publishes.
litmus mp-fence
cores 2 addrs 2 layout split
p0: st0 fe st1
p1: st0=5 fe st1=5

# Message passing through the high-level sync boundary (the paper's
# region-barrier idiom: the boundary stalls commit until the snapshot
# drains).
litmus mp-sync
cores 2 addrs 2 layout split
p0: st0 sy st1
p1: st1=9

# Store buffering: no ordering between the cores' slots at all — every
# interleaving of the two singleton chains is allowed.
litmus sb
cores 2 addrs 2 layout split
p0: st0
p1: st1

# 2+2W with fences: the shape whose forbidden outcome (both second
# stores win) only an exact interleaving solver rules out — per-address
# reasoning admits it.
litmus 2p2w-fence
cores 2 addrs 2 layout split
p0: st0 fe st1
p1: st1=7 fe st0=7

# 2+2W without fences: same-address program order still constrains each
# slot's chain, but the cross-slot cycle is legal.
litmus 2p2w-relaxed
cores 2 addrs 2 layout split
p0: st0 st1
p1: st1=7 st0=7

# Coalescing subsumption: two same-word stores back to back coalesce in
# the write buffer, so only the newer value may reach the accept stream —
# and the final image must hold it (regression: persistChecker once
# flagged the subsumed older store as lost).
litmus coalesce-subsume
cores 2 addrs 2 layout split
p0: st0 st0 fe
p1: st1

# Idempotent re-accept: the same value written twice with a fence
# between; the device may re-accept the identical word without the
# checker inventing a missing persist (regression).
litmus idempotent-reaccept
cores 2 addrs 2 layout split
p0: st0=5 fe st0=5 fe
p1: st1

# Packed layout: all slots share one cache line, so every persist rides
# the same line through WCB touch / WPQ scan-coalesce paths.
litmus packed-mp
cores 2 addrs 2 layout packed
p0: st0 fe st1
p1: st1=3

# Packed same-word chain: consecutive same-word stores on a shared line.
# The final image must hold each chain's newest value — the shape that
# convicts cache-coalesce-stale-word.
litmus packed-chain
cores 2 addrs 2 layout packed
p0: st0 st0 st1
p1: st1=9 st1=10

# Split same-word chain: the single-line variant of the same conviction.
litmus split-chain
cores 2 addrs 2 layout split
p0: st0 st0 fe
p1: st0=11 st1

# Asymmetric sync: core 0 arms a region boundary over two in-flight
# stores while core 1's persist queue is already dry — the shape that
# convicts pipeline-barrier-snapshot-cross-core (a barrier released
# against the wrong core's queue completes before its own stores drain).
litmus lone-sync
cores 2 addrs 2 layout split
p0: st0 st1 sy st0=21
p1: st1=22

# The same asymmetry with the victim in the middle of the core set.
litmus mid-sync
cores 3 addrs 3 layout split
p0: st0
p1: st1 st2 sy st1=31
p2: st2=32

# RMW publication: the atomic's sync boundary orders the data store
# before the RMW's own persist.
litmus rmw-publish
cores 2 addrs 2 layout split
p0: st0 rmw1
p1: rmw1=5

# RMW chain on one word: two atomics accumulate; each boundary drains
# the previous value first, so the slot's chain is strictly ordered.
litmus rmw-chain
cores 2 addrs 2 layout split
p0: st0=4 rmw0=2 rmw0=2
p1: st1=3

# Four cores, three slots: the widest generator shape, pinning the
# round-robin write-buffer accept loop and the step-order shuffle.
litmus quad
cores 4 addrs 3 layout split
p0: st0 fe st1
p1: st1=40 fe st2=40
p2: st2=41 fe st0=41
p3: sy st2=42
`

// ConformanceCorpus returns the curated built-in litmus tests. It panics
// on decode or compile errors — the corpus is a compile-time constant and
// the package tests replay it end to end.
func ConformanceCorpus() []*Test {
	tests, err := DecodeCorpus(conformanceCorpusText)
	if err != nil {
		panic("litmus: built-in corpus invalid: " + err.Error())
	}
	for _, t := range tests {
		if _, err := Compile(t); err != nil {
			panic("litmus: built-in corpus does not compile: " + err.Error())
		}
	}
	return tests
}
