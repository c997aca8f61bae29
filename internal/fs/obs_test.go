package fs

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestKernelSinkSeesDisksAndCache: a file system reports to its
// kernel's sink. Two clients read, compute, write and Sync over four
// disks; the sink gets one disk-transfer span per request the disks
// served, and cache counters equal to CacheStats. Under transient read
// errors the fault injector reports its draws too.
func TestKernelSinkSeesDisksAndCache(t *testing.T) {
	for _, faults := range []fault.Config{{}, {Seed: 3, ReadErrorRate: 0.1}} {
		k := sim.NewKernel()
		rec := obs.NewRecorder()
		k.SetObserver(rec)
		fsys := MustNew(k, Options{Disks: 4, CacheFrames: 4, ReadaheadFrames: 4, Readahead: 2, Nodes: 2, Faults: faults})
		in, _ := fsys.Create("in", 32)
		out, _ := fsys.Create("out", 32)
		for c := 0; c < 2; c++ {
			k.Spawn("client", 0, func(p *sim.Proc) {
				hin, hout := in.OpenHandle(c), out.OpenHandle(c)
				for b := 16 * c; b < 16*(c+1); b++ {
					hin.Read(p, b)
					p.Advance(sim.Millisecond)
					hout.Write(p, b)
				}
				hin.Close()
				hout.Close()
				fsys.Sync(p)
			})
		}
		k.Run()

		served, _ := fsys.DiskStats()
		transfers := int64(0)
		for _, s := range rec.Spans {
			if s.Kind == obs.SpanDiskTransfer {
				transfers++
			}
		}
		if served == 0 || transfers != served || rec.Counters[obs.CtrDiskRequests] != served {
			t.Fatalf("faults %+v: %d transfer spans and %d disk requests counted, disks served %d",
				faults, transfers, rec.Counters[obs.CtrDiskRequests], served)
		}
		cs := fsys.CacheStats()
		for _, c := range []struct {
			ctr  obs.Counter
			want int64
		}{
			{obs.CtrCacheReadyHits, cs.ReadyHits},
			{obs.CtrCacheUnreadyHits, cs.UnreadyHits},
			{obs.CtrCacheMisses, cs.Misses},
			{obs.CtrCachePrefetchesIssued, cs.PrefetchesIssued},
			{obs.CtrCachePrefetchesConsumed, cs.PrefetchesConsumed},
			{obs.CtrCacheFailedFills, cs.FailedFills},
		} {
			if got := rec.Counters[c.ctr]; got != c.want {
				t.Errorf("faults %+v: counter %d = %d, CacheStats says %d", faults, c.ctr, got, c.want)
			}
		}
		if cs.Misses == 0 || cs.PrefetchesIssued == 0 {
			t.Fatalf("faults %+v: the workload missed %d times and prefetched %d blocks", faults, cs.Misses, cs.PrefetchesIssued)
		}
		if injected := fsys.DiskFaultStats().Transient; faults.Enabled() &&
			(injected == 0 || rec.Counters[obs.CtrFaultsInjected] != injected || rec.Counters[obs.CtrFaultDraws] != served) {
			t.Fatalf("fault counters: %d draws, %d injected; disks served %d with %d transient errors",
				rec.Counters[obs.CtrFaultDraws], rec.Counters[obs.CtrFaultsInjected], served, injected)
		}
	}
}
