package disk

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkSubmitComplete measures one request through the FIFO queue.
func BenchmarkSubmitComplete(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	d := fifoDisk(k, sim.Millisecond)
	k.Spawn("p", 0, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			d.Submit(i, 0, false).Complete.Wait(p)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkSSTFQueue measures dispatch with a scheduled (reordering)
// queue kept 16 deep.
func BenchmarkSSTFQueue(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	d := NewArray(k, 1, Profile{Access: sim.Millisecond, SeekPerBlock: sim.Microsecond}, SSTF).Disk(0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		var last *Request
		for i := 0; i < b.N; i++ {
			last = d.Submit(i, (i*37)%512, false)
			if d.QueueLength() > 16 {
				last.Complete.Wait(p)
			}
		}
		if last != nil {
			last.Complete.Wait(p)
		}
	})
	b.ResetTimer()
	k.Run()
}
