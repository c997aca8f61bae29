package core

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/barrier"
	"repro/internal/fault"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// TestAllocsPerRead pins the simulator's allocation rate per block read
// on three reference cells: the paper-scale gw prefetching run, a
// 2k-node compact cluster cell, and the same cell under the chaos
// composition of the cluster-chaos benchmark workload (transient read
// errors, node stalls, a rack storm and straggler spread, and a rack
// kill at a quarter of the clean run). Disk request records come in
// blocks of 64 from a pool that lives for the whole run, the disk
// queues are linked through the records, fired events hand their
// waiter lists back to the kernel, and the overflow slices needed at
// t=0, when every cluster node parks on its first fill before any
// event has handed one back, are carved 16 to an allocation. What is
// left is set-up and, under chaos, the fault errors: 0.030, 0.010 and
// 0.038 allocations per read (60, 322 and 1,202 per run). The bounds
// leave ~40% headroom, and the chaos bound also covers the race
// detector, under which sync.Pool drops items at random and fault
// errors read 0.048–0.050. A disk request allocated per transfer
// (about one more per read) fails all three, and so does one overflow
// slice per cluster node (0.07 and 0.10 per read before the carving).
func TestAllocsPerRead(t *testing.T) {
	paper := DefaultConfig(pattern.GW)
	paper.Sync = barrier.EveryNPerProc
	paper.Prefetch = true

	const nodes, disks, racks = 2000, 500, 16
	cluster := ScaleConfig(nodes, disks, true)
	cluster.Pattern.TotalBlocks = 16 * nodes
	cluster.ComputeMean = 7 * cluster.DiskAccess

	chaos := cluster
	chaos.Fault = fault.Config{Seed: 12, ReadErrorRate: 0.01}
	chaos.NodeFault.Seed = 6
	chaos.NodeFault.StallRate = 0.01
	chaos.NodeFault.StallMean = sim.Millisecond
	chaos.Domain = fault.DomainConfig{
		Seed:        10,
		Domains:     fault.SplitDomains("rack", disks, nodes, racks),
		StormDomain: "rack0", StormAt: 50 * sim.Millisecond,
		StormFor: 200 * sim.Millisecond, StormFactor: 3,
		StormJitter:     10 * sim.Millisecond,
		StragglerDomain: fmt.Sprintf("rack%d", racks-1),
		StragglerFactor: 2, StragglerRate: 0.25,
		KillDomain: fmt.Sprintf("rack%d", racks/2),
		KillAt:     MustRun(cluster).TotalTime / 4,
	}

	for _, tc := range []struct {
		name string
		cfg  Config
		runs int
		max  float64
	}{
		{"paper-gw-prefetch", paper, 5, 0.045},
		{"compact-2k-nodes", cluster, 2, 0.014},
		{"chaos-2k-nodes", chaos, 2, 0.06},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reads := 0
			allocs := testing.AllocsPerRun(tc.runs, func() {
				reads = totalReads(MustRun(tc.cfg))
			})
			perRead := allocs / float64(reads)
			t.Logf("%.0f allocations per run, %d reads: %.3f per read", allocs, reads, perRead)
			if perRead > tc.max {
				t.Errorf("%.3f allocations per read, want at most %.3f", perRead, tc.max)
			}
		})
	}
}

// TestRecordSizes pins the two records a run keeps per processor: the
// cnode while it runs, and the ProcStats its Result keeps.
func TestRecordSizes(t *testing.T) {
	for _, r := range []struct {
		name       string
		got, limit uintptr
	}{
		{"cnode", unsafe.Sizeof(cnode{}), 200},
		{"ProcStats", unsafe.Sizeof(ProcStats{}), 112},
	} {
		t.Logf("%s: %d bytes", r.name, r.got)
		if r.got > r.limit {
			t.Errorf("%s is %d bytes, want at most %d", r.name, r.got, r.limit)
		}
	}
}
