package fs

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestKernelSinkSeesDisksAndCache: a file system reports to its
// kernel's sink, whether the sink is installed before the file system
// is built or after it. Two clients read, compute, write and Sync over
// four disks; the sink gets one disk-transfer span per request the
// disks served, and cache counters equal to CacheStats. Under transient
// read errors the disks report their fault draws too.
func TestKernelSinkSeesDisksAndCache(t *testing.T) {
	for _, faults := range []fault.Config{{}, {Seed: 3, ReadErrorRate: 0.1}} {
		for _, late := range []bool{false, true} {
			checkKernelSink(t, faults, late)
		}
	}
}

func checkKernelSink(t *testing.T, faults fault.Config, late bool) {
	t.Helper()
	where := fmt.Sprintf("faults %+v, sink installed after New %v", faults, late)
	k := sim.NewKernel()
	rec := obs.NewRecorder()
	if !late {
		k.SetObserver(rec)
	}
	fsys := MustNew(k, Options{Disks: 4, CacheFrames: 4, ReadaheadFrames: 4, Readahead: 2, Nodes: 2, Faults: faults})
	if late {
		k.SetObserver(rec)
	}
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
		t.Fatalf("%s: %d transfer spans and %d disk requests counted, disks served %d",
			where, transfers, rec.Counters[obs.CtrDiskRequests], served)
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
			t.Errorf("%s: counter %d = %d, CacheStats says %d", where, c.ctr, got, c.want)
		}
	}
	if cs.Misses == 0 || cs.PrefetchesIssued == 0 {
		t.Fatalf("%s: the workload missed %d times and prefetched %d blocks", where, cs.Misses, cs.PrefetchesIssued)
	}
	if injected := fsys.DiskFaultStats().Transient; faults.Enabled() &&
		(injected == 0 || rec.Counters[obs.CtrFaultsInjected] != injected || rec.Counters[obs.CtrFaultDraws] != served) {
		t.Fatalf("%s: %d draws, %d injected; disks served %d with %d transient errors",
			where, rec.Counters[obs.CtrFaultDraws], rec.Counters[obs.CtrFaultsInjected], served, injected)
	}
}
