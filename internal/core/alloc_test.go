package core

import (
	"testing"

	"repro/internal/barrier"
	"repro/internal/pattern"
)

// TestAllocsPerRead pins the simulator's allocation rate per block read
// on two reference cells: the paper-scale gw prefetching run and a
// 2k-node compact cluster cell. What remains is mostly set-up and the
// disk layer's per-request records, about two allocations per read
// (2.06 and 1.92); the bounds leave ~40% headroom.
// Event-queue slot regrowth, at 6 to 11 allocations per read, fails
// here.
func TestAllocsPerRead(t *testing.T) {
	paper := DefaultConfig(pattern.GW)
	paper.Sync = barrier.EveryNPerProc
	paper.Prefetch = true

	const nodes = 2000
	cluster := ScaleConfig(nodes, nodes/4, true)
	cluster.Pattern.TotalBlocks = 16 * nodes
	cluster.ComputeMean = 7 * cluster.DiskAccess

	for _, tc := range []struct {
		name string
		cfg  Config
		runs int
		max  float64
	}{
		{"paper-gw-prefetch", paper, 5, 3.0},
		{"compact-2k-nodes", cluster, 2, 2.7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reads := 0
			allocs := testing.AllocsPerRun(tc.runs, func() {
				reads = totalReads(MustRun(tc.cfg))
			})
			perRead := allocs / float64(reads)
			t.Logf("%.0f allocations per run, %d reads: %.2f per read", allocs, reads, perRead)
			if perRead > tc.max {
				t.Errorf("%.2f allocations per read, want at most %.1f", perRead, tc.max)
			}
		})
	}
}
