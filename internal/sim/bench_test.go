package sim

import "testing"

// BenchmarkScheduleRun measures raw event throughput through the heap.
func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	for i := 0; i < b.N; i++ {
		k.Schedule(k.Now()+Time(i%64), func() {})
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}

// BenchmarkProcSwitch measures the coroutine handoff cost: two
// processes advance in lockstep, so every Advance parks and is resumed
// through the heap — one resume/yield round trip per iteration. (A lone
// process would take Advance's fast path and never switch.)
func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	for _, n := range []int{b.N / 2, b.N - b.N/2} {
		k.Spawn("p", 0, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Advance(1)
			}
		})
	}
	b.ResetTimer()
	k.Run()
}

// BenchmarkEventFanout measures firing an event with many waiters.
func BenchmarkEventFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		ev := NewEvent(k)
		for w := 0; w < 32; w++ {
			k.Spawn("w", 0, func(p *Proc) { ev.Wait(p) })
		}
		k.Spawn("f", 0, func(p *Proc) { p.Advance(1); ev.Fire() })
		k.Run()
	}
}
