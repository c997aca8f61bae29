package disk

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// releaser is a consumer that releases its request from Complete's
// continuation, as a cache frame with no pins does.
type releaser struct{ r *Request }

func (c *releaser) Wake() { c.r.Release() }

// TestSteadyStateAllocs pins the disk layer's steady state at zero
// allocations per request: on a warmed array, Submit → complete →
// Release cycles reuse the request records, across runs too. One
// request stays outstanding throughout, as in a running system, so the
// end of each run keeps the pool.
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
	cycle() // warm: grow the free list, the queues and the event queue
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

// A pool lives for one run: at the run's end, an array with no record
// out drops its free list and the rest of its newest record block,
// while a record still out keeps the pool for the next run.
func TestRunEndDropsPools(t *testing.T) {
	k := sim.NewKernel()
	a := NewArray(k, 3, Fixed(sim.Millisecond), FIFO)
	for i := 0; i < 12; i++ {
		a.Submit(i%3, i, i, false).Release()
	}
	k.Run()
	if a.free != nil || a.block != nil || a.out != 0 {
		t.Fatalf("after the run: free list %v, %d uncarved records, %d out", a.free != nil, len(a.block), a.out)
	}

	held := a.Submit(0, 100, 0, false) // never released
	a.Submit(1, 101, 0, false).Release()
	k.Run()
	if a.free == nil || a.out != 1 {
		t.Fatalf("with a record out: free list %v, %d out; want the pool kept", a.free != nil, a.out)
	}
	if r := a.Submit(2, 102, 0, false); r == held {
		t.Fatal("the record still out was handed out again")
	}
}

// An array whose queues drain and fill again several times inside one
// run keeps its pool through the drains: after the first cycle, no
// cycle allocates anything.
func TestDrainsKeepPools(t *testing.T) {
	const disks, perCycle = 4, 48
	run := func(cycles int) float64 {
		return testing.AllocsPerRun(5, func() {
			k := sim.NewKernel()
			a := NewArray(k, disks, Fixed(sim.Millisecond), FIFO)
			b := &burster{k: k, a: a, cs: make([]releaser, perCycle), left: cycles}
			k.ScheduleWake(0, b)
			k.Run()
		})
	}
	if one, six := run(1), run(6); six != one {
		t.Fatalf("six drain cycles in one run allocate %v, one cycle %v; want the same", six, one)
	}
}

// burster submits left bursts of reads, each released on completion,
// one second apart, so every queue drains between bursts.
type burster struct {
	k    *sim.Kernel
	a    *Array
	cs   []releaser
	left int
}

func (b *burster) Wake() {
	if b.left == 0 {
		return
	}
	b.left--
	b.k.AfterWake(sim.Second, b)
	for i := range b.cs {
		b.cs[i].r = b.a.Submit(i%b.a.Len(), i, i, false)
		b.cs[i].r.Complete.AddWaiter(&b.cs[i])
	}
}

// A disk that never goes idle allocates nothing once warm: every
// completion releases its request and submits the next, so the queue
// stays eight deep for the whole run, and serving 5,000 requests costs
// what serving 500 does.
func TestBusyDiskAllocatesNothing(t *testing.T) {
	const depth = 8
	run := func(total int) float64 {
		return testing.AllocsPerRun(5, func() {
			k := sim.NewKernel()
			d := fifoDisk(k, sim.Millisecond)
			left := total - depth
			fs := make([]feeder, depth)
			for i := range fs {
				fs[i] = feeder{d: d, left: &left}
				fs[i].submit()
			}
			k.Run()
			if d.Served() != int64(total) {
				t.Fatalf("served %d of %d", d.Served(), total)
			}
		})
	}
	if few, many := run(500), run(5000); many != few {
		t.Fatalf("5,000 requests allocate %v, 500 allocate %v; want the same", many, few)
	}
}

// feeder keeps one request in a disk's queue until *left runs out.
type feeder struct {
	d    *Disk
	r    *Request
	left *int
}

func (f *feeder) submit() {
	f.r = f.d.Submit(*f.left, 0, false)
	f.r.Complete.AddWaiter(f)
}

func (f *feeder) Wake() {
	f.r.Release()
	if *f.left > 0 {
		*f.left--
		f.submit()
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
			a.disks[0].first.holds &^= holdDisk
		}},
		{"queue miscounted", "queue links 1 request(s) but counts 2", func(a *Array) {
			a.disks[0].queued++
		}},
		{"in-service request lost the disk's hold", "in-service request for block 1 has lost the disk's hold", func(a *Array) {
			a.disks[0].current.holds = 0
		}},
		{"free-list record still held", "free-list request for block 9 on disk 1 is still held", func(a *Array) {
			a.free = &Request{Disk: 1, Block: 9, holds: holdConsumer, next: a.free}
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

// TestRecordSizes pins the request record, allocated 64 to a block and
// one per transfer in flight, and the disk, one per disk of a cluster
// array.
func TestRecordSizes(t *testing.T) {
	for _, r := range []struct {
		name       string
		got, limit uintptr
	}{
		{"Request", unsafe.Sizeof(Request{}), 160},
		{"Disk", unsafe.Sizeof(Disk{}), 288},
	} {
		t.Logf("%s: %d bytes", r.name, r.got)
		if r.got > r.limit {
			t.Errorf("%s is %d bytes, want at most %d", r.name, r.got, r.limit)
		}
	}
}
