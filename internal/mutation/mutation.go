// Package mutation is the seeded-bug registry behind the oracle's
// mutation-testing gate. Each Mutation names one intentional single-site
// bug compiled into the simulator behind an `if mutation.Is(...)` guard;
// enabling it flips exactly that site into its buggy variant. The harness
// (ppa.RunMutationCampaign, exercised by TestMutationGate and the CI
// oracle-gate job) enables each bug in turn and demands that the lockstep
// oracle or the crash-consistency checks catch it — proof that the
// verification tooling has teeth, not just coverage.
//
// The enabled mutation is plain package state, deliberately: the guards sit
// on simulator hot paths (commit, write-buffer add, WPQ accept) where an
// atomic or a mutex would distort the very timing model under test. The
// contract is that Enable/Disable are only called between simulations, from
// the single goroutine that owns them — which is how the campaign and the
// tests use it. Production runs never touch this package; the default None
// keeps every site on its correct branch.
package mutation

import (
	"fmt"
	"strings"
)

// Mutation identifies one seeded bug.
type Mutation int

const (
	// None selects the correct behaviour at every site.
	None Mutation = iota
	// RenameReclaimMaskedEarly frees a masked (MaskReg-pinned) displaced
	// register immediately at commit instead of deferring its reclamation
	// to the region boundary — the store-integrity bug MaskReg exists to
	// prevent.
	RenameReclaimMaskedEarly
	// RenameCRTStaleTag leaves the commit rename table pointing at the
	// displaced register when a definition retires, so the committed map
	// carries a stale tag.
	RenameCRTStaleTag
	// PipelineMaskSkip commits a store without setting its data register's
	// MaskReg bit, leaving the CSQ's replay source unpinned.
	PipelineMaskSkip
	// PipelineBarrierEarlyRelease closes a region boundary without waiting
	// for the persist snapshot to drain into the WPQ.
	PipelineBarrierEarlyRelease
	// PipelineBarrierSnapshotOffByOne snapshots the boundary's persist
	// sequence one entry short, so the newest write-buffer entry escapes
	// the barrier's wait.
	PipelineBarrierSnapshotOffByOne
	// PipelineLCPCSkew skips the LCPC update when a store commits, so the
	// recovery resume point drifts past committed stores.
	PipelineLCPCSkew
	// CacheCoalesceDropWord coalesces a store into an existing write-buffer
	// entry without writing its value into the entry's word payload.
	CacheCoalesceDropWord
	// RecoveryReplayOffByOne stops CSQ replay one entry short, silently
	// dropping the newest committed store of every replayed checkpoint.
	RecoveryReplayOffByOne
	// CheckpointDropCSQRegs omits the CSQ-referenced physical registers
	// from the JIT checkpoint, keeping only the CRT-referenced ones.
	CheckpointDropCSQRegs
	// NVMCoalesceSkipImage coalesces a WPQ/WCB-resident line without
	// applying the new words to the durable image.
	NVMCoalesceSkipImage
	// CacheCoalesceStaleWord keeps the stale word value on a multicore
	// write-buffer coalescing hit: the newer same-word store is acked but
	// its value never persists, breaking per-location persist order. Only
	// the litmus engine's axiomatic final-state check sees it — every
	// intermediate NVM state looks individually plausible.
	CacheCoalesceStaleWord
	// PipelineBarrierSnapshotCrossCore makes a region boundary snapshot
	// the next core's persist counter instead of its own, releasing the
	// barrier against the wrong queue. Invisible on one core and
	// state-invisible on many (the per-core FIFO still orders persists);
	// only the litmus engine's barrier-completion durability check — the
	// model's barrier axiom applied at the machine's own completion
	// signal — catches it.
	PipelineBarrierSnapshotCrossCore
	// LogReplaySkipsLast stops the redo-log recovery replay one data record
	// short of the region-commit marker, silently dropping the newest
	// logged store of the last committed transaction.
	LogReplaySkipsLast
	// UndoAppliedAfterCommit makes the undo-log rollback scan run one
	// record past the commit marker, reverting a pre-image the marker had
	// already committed.
	UndoAppliedAfterCommit
	numMutations
)

// enabled is the active mutation (None outside mutation campaigns). See the
// package comment for the single-goroutine contract.
var enabled = None

// Enable activates one seeded bug. Call only between simulations.
func Enable(m Mutation) { enabled = m }

// Disable restores correct behaviour at every site.
func Disable() { enabled = None }

// Is reports whether m is the active mutation. It is the hot-path guard:
// one global load and compare, inlined at every site.
func Is(m Mutation) bool { return enabled == m }

// All lists every seeded bug (excluding None), in stable order.
func All() []Mutation {
	out := make([]Mutation, 0, numMutations-1)
	for m := None + 1; m < numMutations; m++ {
		out = append(out, m)
	}
	return out
}

var ids = [...]string{
	None:                             "none",
	RenameReclaimMaskedEarly:         "rename-reclaim-masked-early",
	RenameCRTStaleTag:                "rename-crt-stale-tag",
	PipelineMaskSkip:                 "pipeline-mask-skip",
	PipelineBarrierEarlyRelease:      "pipeline-barrier-early-release",
	PipelineBarrierSnapshotOffByOne:  "pipeline-barrier-snapshot-off-by-one",
	PipelineLCPCSkew:                 "pipeline-lcpc-skew",
	CacheCoalesceDropWord:            "cache-coalesce-drop-word",
	RecoveryReplayOffByOne:           "recovery-replay-off-by-one",
	CheckpointDropCSQRegs:            "checkpoint-drop-csq-regs",
	NVMCoalesceSkipImage:             "nvm-coalesce-skip-image",
	CacheCoalesceStaleWord:           "cache-coalesce-stale-word",
	PipelineBarrierSnapshotCrossCore: "pipeline-barrier-snapshot-cross-core",
	LogReplaySkipsLast:               "log-replay-skips-last-entry",
	UndoAppliedAfterCommit:           "undo-applied-after-commit",
}

// String returns the mutation's stable kebab-case identifier.
func (m Mutation) String() string {
	if m >= 0 && int(m) < len(ids) {
		return ids[m]
	}
	return "unknown"
}

// Parse resolves a kebab-case identifier back to its Mutation ("none"
// included), so CLIs can inject a seeded bug by name — the forensics CI
// step does, to prove a violation produces a flight-recorder bundle.
func Parse(name string) (Mutation, error) {
	for m := None; m < numMutations; m++ {
		if ids[m] == name {
			return m, nil
		}
	}
	known := make([]string, 0, numMutations)
	for m := None; m < numMutations; m++ {
		known = append(known, ids[m])
	}
	return None, fmt.Errorf("mutation: unknown mutation %q (known: %s)", name, strings.Join(known, ", "))
}

var sites = [...]string{
	None:                             "",
	RenameReclaimMaskedEarly:         "internal/rename/rename.go:Commit",
	RenameCRTStaleTag:                "internal/rename/rename.go:Commit",
	PipelineMaskSkip:                 "internal/pipeline/pipeline.go:commitStore",
	PipelineBarrierEarlyRelease:      "internal/pipeline/pipeline.go:tryEndRegion",
	PipelineBarrierSnapshotOffByOne:  "internal/pipeline/pipeline.go:tryEndRegion",
	PipelineLCPCSkew:                 "internal/pipeline/pipeline.go:commitStage",
	CacheCoalesceDropWord:            "internal/cache/hierarchy.go:writeBuffer.add",
	RecoveryReplayOffByOne:           "internal/recovery/load.go:ReplayN",
	CheckpointDropCSQRegs:            "internal/checkpoint/checkpoint.go:Capture",
	NVMCoalesceSkipImage:             "internal/nvm/nvm.go:TryAccept",
	CacheCoalesceStaleWord:           "internal/cache/hierarchy.go:writeBuffer.add",
	PipelineBarrierSnapshotCrossCore: "internal/pipeline/pipeline.go:tryEndRegion",
	LogReplaySkipsLast:               "internal/persist/logpath.go:RecoverLog",
	UndoAppliedAfterCommit:           "internal/persist/logpath.go:RecoverLog",
}

// Site names the source location of the seeded bug.
func (m Mutation) Site() string {
	if m >= 0 && int(m) < len(sites) {
		return sites[m]
	}
	return ""
}

var descriptions = [...]string{
	None:                             "no mutation",
	RenameReclaimMaskedEarly:         "masked register reclaimed early at commit",
	RenameCRTStaleTag:                "CRT maps a stale tag after commit",
	PipelineMaskSkip:                 "store commits without masking its data register",
	PipelineBarrierEarlyRelease:      "barrier released with outstanding persists",
	PipelineBarrierSnapshotOffByOne:  "barrier persist snapshot off by one entry",
	PipelineLCPCSkew:                 "LCPC not updated by store commits",
	CacheCoalesceDropWord:            "write-buffer coalescing drops a word",
	RecoveryReplayOffByOne:           "CSQ replay stops one entry short of the tail",
	CheckpointDropCSQRegs:            "checkpoint omits CSQ-referenced registers",
	NVMCoalesceSkipImage:             "WPQ coalescing skips the durable image update",
	CacheCoalesceStaleWord:           "multicore write-buffer coalescing keeps the stale word",
	PipelineBarrierSnapshotCrossCore: "barrier snapshots the next core's persist counter",
	LogReplaySkipsLast:               "redo-log replay stops one record short of the commit marker",
	UndoAppliedAfterCommit:           "undo rollback reverts a committed pre-marker record",
}

// Description is a one-line human summary of the bug.
func (m Mutation) Description() string {
	if m >= 0 && int(m) < len(descriptions) {
		return descriptions[m]
	}
	return "unknown mutation"
}
