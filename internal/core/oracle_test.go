package core

import (
	"fmt"
	"testing"

	"repro/internal/barrier"
	"repro/internal/memory"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// TestClosedFormSingleReader is an oracle that does not come from the
// implementation. One processor with no computation, no prefetching
// and no synchronization reads every block of its pattern on demand
// from fixed-access FIFO disks. Nothing overlaps and nothing queues:
// each read costs exactly the memory model's miss price plus one disk
// access, so the run ends at reads × (DiskAccess + Miss.Base) exactly.
// Every pattern runs in both same-instant wake orders.
func TestClosedFormSingleReader(t *testing.T) {
	t.Parallel()
	for _, kind := range pattern.Kinds {
		for _, compact := range []bool{false, true} {
			for _, disks := range []int{1, 4, 20} {
				for _, access := range []sim.Duration{30 * sim.Millisecond, 7 * sim.Millisecond} {
					cfg := DefaultConfig(kind)
					cfg.Procs = 1
					cfg.Pattern.Procs = 1
					cfg.Disks = disks
					cfg.DiskAccess = access
					cfg.ComputeMean = 0
					cfg.Prefetch = false
					cfg.Sync = barrier.None
					cfg.Memory = memory.Free()
					cfg.CompactNodes = compact
					reads := cfg.Pattern.TotalBlocks
					if kind.Local() {
						reads = cfg.Pattern.Procs * cfg.Pattern.BlocksPerProc
					}
					name := fmt.Sprintf("%v/compact=%v/disks=%d/access=%v", kind, compact, disks, access)
					t.Run(name, func(t *testing.T) {
						r := MustRun(cfg)
						want := sim.Duration(reads) * (access + cfg.Memory.Miss.Base)
						if r.TotalTime != want {
							t.Fatalf("TotalTime = %v, want %d × (%v + %v) = %v",
								r.TotalTime, reads, access, cfg.Memory.Miss.Base, want)
						}
						if got := r.Cache.Misses; got != int64(reads) {
							t.Fatalf("misses = %d, want %d", got, reads)
						}
					})
				}
			}
		}
	}
}
