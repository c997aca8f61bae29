package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkScheduleRun measures raw event throughput through the queue.
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

// holdModel drives the classic hold model through the kernel: each
// dispatched holder reschedules itself one increment later, so the
// number of pending events stays fixed and every dispatch is one pop
// and one push.
type holdModel struct {
	k    *Kernel
	incs []Duration // increments, used in turn
	pos  int
	left int        // holds still to make; at 0 the holders stop rescheduling
	b    *testing.B // its timer stops when left reaches 0; nil in tests
}

type holder struct{ m *holdModel }

func (h *holder) Wake() {
	m := h.m
	if m.left == 0 {
		return
	}
	m.left--
	m.k.AfterWake(m.incs[m.pos%len(m.incs)], h)
	m.pos++
	if m.left == 0 && m.b != nil {
		m.b.StopTimer()
	}
}

// BenchmarkHold measures the kernel's cost per event under the hold
// model at 32, 4,096 and 16,384 pending events — paper-scale runs keep
// tens pending, cluster-scale runs about one per node — with
// exponentially distributed and fixed increments (mean 1 ms). The
// increments are drawn before timing starts, and the final drain is not
// timed, so ns/event is one dispatch, one pop and one push.
func BenchmarkHold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	exp := make([]Duration, 1<<12)
	for i := range exp {
		exp[i] = Duration(rng.ExpFloat64() * float64(Millisecond))
	}
	fixed := []Duration{Millisecond}
	for _, n := range []int{32, 4096, 16384} {
		for _, inc := range []struct {
			name string
			incs []Duration
		}{{"exp", exp}, {"fixed", fixed}} {
			b.Run(fmt.Sprintf("pending=%d/%s", n, inc.name), func(b *testing.B) {
				b.ReportAllocs()
				k := NewKernel()
				m := &holdModel{k: k, incs: inc.incs, left: b.N, b: b}
				hs := make([]holder, n)
				for i := range hs {
					hs[i].m = m
					k.ScheduleWake(Time(exp[i%len(exp)]), &hs[i])
				}
				b.ResetTimer()
				k.Run()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
			})
		}
	}
}

// BenchmarkProcSwitch measures the coroutine handoff cost: two
// processes advance in lockstep, so every Advance parks and is resumed
// through the queue — one resume/yield round trip per iteration. (A
// lone process would take Advance's fast path and never switch.)
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
