package cache

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkDemandCycle measures the allocate → ready → pin → unpin →
// recycle path.
func BenchmarkDemandCycle(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	c := New(k, Options{DemandFrames: 16, Nodes: 4})
	k.Spawn("p", 0, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			block := i
			buf := c.AllocateDemand(0, block)
			ev := sim.NewEvent(k)
			at := k.Now().Add(sim.Microsecond)
			k.Schedule(at, ev.Fire)
			c.BeginFetchFrom(buf, ev, at, nil)
			ev.Wait(p)
			c.Unpin(buf)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkLookupHit measures the hit path on a resident block.
func BenchmarkLookupHit(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	c := New(k, Options{DemandFrames: 4, Nodes: 1})
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf := c.AllocateDemand(0, 42)
		ev := sim.NewEvent(k)
		at := k.Now().Add(sim.Microsecond)
		k.Schedule(at, ev.Fire)
		c.BeginFetchFrom(buf, ev, at, nil)
		ev.Wait(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got := c.Lookup(42)
			c.Pin(0, got)
			c.Unpin(got)
		}
		c.Unpin(buf)
	})
	k.Run()
}
