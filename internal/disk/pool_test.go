package disk

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// releaser is a consumer that releases its request from Complete's
// continuation, as a cache frame with no pins does.
type releaser struct{ r *Request }

func (c *releaser) Wake() { c.r.Release() }

// TestSteadyStateAllocs pins the disk layer's steady state at zero
// allocations per request: on a warmed array, Submit → complete →
// Release cycles reuse the request records and the queues' backing
// arrays. One request stays outstanding throughout, as in a running
// system; only the array's last release drops the free list.
func TestSteadyStateAllocs(t *testing.T) {
	const disks, perCycle = 4, 64
	k := sim.NewKernel()
	a := NewArray(k, disks, Fixed(sim.Millisecond), FIFO)
	a.Submit(0, -1, 0, false) // never released
	cs := make([]releaser, perCycle)
	cycle := func() {
		for i := range cs {
			cs[i].r = a.Submit(i%disks, i, i, false)
			cs[i].r.Complete.AddWaiter(&cs[i])
		}
		k.Run()
	}
	cycle() // warm: grow the free list, the queues and the event heap
	allocs := testing.AllocsPerRun(20, cycle)
	if perReq := allocs / perCycle; perReq != 0 {
		t.Errorf("%.3f allocations per request, want 0", perReq)
	}
	if err := a.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseTwicePanics(t *testing.T) {
	k := sim.NewKernel()
	d := fifoDisk(k, sim.Millisecond)
	r := d.Submit(1, 0, false)
	r.Release()
	defer func() {
		if v := recover(); v == nil || !strings.Contains(v.(string), "released twice") {
			t.Fatalf("second Release: recovered %v, want a released-twice panic", v)
		}
	}()
	r.Release()
}

// A consumer that releases inside Complete's firing, and submits from
// there, must not be handed the record still being fired; the record
// is reused only after the disk has dropped its hold too.
func TestRecordReusedOnlyAfterBothHolds(t *testing.T) {
	k := sim.NewKernel()
	a := NewArray(k, 1, Fixed(sim.Millisecond), FIFO)
	a.Submit(0, 100, 0, false) // never released: keeps the array from draining
	first := a.Submit(0, 1, 0, false)
	var inside, after *Request
	first.Complete.OnFire(func() {
		first.Release()
		inside = a.Submit(0, 2, 0, false)
		inside.Release()
	})
	k.Run()
	if inside == first {
		t.Fatal("a Submit inside Fire reused the record being fired")
	}
	after = a.Submit(0, 3, 0, false)
	if after != first && after != inside {
		t.Fatal("a Submit after both holds dropped did not reuse a released record")
	}
	if after.Block != 3 || after.Complete.Fired() || after.Err != nil {
		t.Fatalf("reused record not reset: %+v", after)
	}
}

// When the last outstanding request comes back, the array drops its
// free list and every queue's backing array.
func TestDrainDropsPools(t *testing.T) {
	k := sim.NewKernel()
	a := NewArray(k, 3, Fixed(sim.Millisecond), FIFO)
	for i := 0; i < 12; i++ {
		a.Submit(i%3, i, i, false).Release()
	}
	k.Run()
	if a.free != nil || a.out != 0 {
		t.Fatalf("free list of %d, %d out after the drain", len(a.free), a.out)
	}
	for i, d := range a.disks {
		if d.queue != nil || d.head != 0 {
			t.Fatalf("disk %d keeps a queue of capacity %d", i, cap(d.queue))
		}
	}
}

// A disk that never goes idle still reuses its queue's array: the live
// tail moves down once half the array is served, so the array stays
// within a small multiple of the queue depth.
func TestBusyQueueStaysBounded(t *testing.T) {
	const depth, total = 8, 5000
	k := sim.NewKernel()
	d := fifoDisk(k, sim.Millisecond)
	k.Spawn("p", 0, func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			r := d.Submit(i, 0, false)
			r.Release()
			if d.QueueLength() >= depth {
				p.Advance(sim.Millisecond)
			}
			if c := cap(d.queue); c > 4*depth {
				t.Errorf("request %d: queue array of %d slots for a depth of %d", i, c, depth)
				return
			}
		}
	})
	k.Run()
	if !t.Failed() && d.Served() != total {
		t.Fatalf("served %d of %d", d.Served(), total)
	}
}

// Seeded corruption of the request holds must be caught by Audit — the
// disk-queues invariant of the runtime auditor.
func TestAuditCatchesLostHolds(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(a *Array)
	}{
		{"queued request lost the disk's hold", "queued request for block 2 has lost the disk's hold", func(a *Array) {
			a.disks[0].pending()[0].holds &^= holdDisk
		}},
		{"in-service request lost the disk's hold", "in-service request for block 1 has lost the disk's hold", func(a *Array) {
			a.disks[0].current.holds = 0
		}},
		{"free-list record still held", "free-list request for block 9 on disk 1 is still held", func(a *Array) {
			a.free = append(a.free, &Request{Disk: 1, Block: 9, holds: holdConsumer})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			a := NewArray(k, 2, Fixed(sim.Millisecond), FIFO)
			a.Submit(0, 1, 0, false)
			a.Submit(0, 2, 1, false)
			if err := a.Audit(); err != nil {
				t.Fatalf("sound array fails the audit: %v", err)
			}
			tc.corrupt(a)
			err := a.Audit()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}
