package disk

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// fifoDisk returns the one disk of a FIFO array with a fixed access
// time.
func fifoDisk(k *sim.Kernel, access sim.Duration) *Disk {
	return NewArray(k, 1, Fixed(access), FIFO).Disk(0)
}

func TestSingleRequestTiming(t *testing.T) {
	k := sim.NewKernel()
	d := fifoDisk(k, 30*sim.Millisecond)
	var req *Request
	k.Spawn("p", 0, func(p *sim.Proc) {
		p.Advance(5 * sim.Millisecond)
		req = d.Submit(42, 0, false)
		req.Complete.Wait(p)
		if p.Now() != sim.Time(35*sim.Millisecond) {
			t.Errorf("completion at %v, want 35ms", p.Now())
		}
	})
	k.Run()
	if req.ResponseTime() != 30*sim.Millisecond {
		t.Fatalf("response = %v, want 30ms", req.ResponseTime())
	}
	if req.QueueDelay() != 0 {
		t.Fatalf("queue delay = %v, want 0", req.QueueDelay())
	}
	if req.Block != 42 || req.Disk != 0 {
		t.Fatalf("request fields: %+v", req)
	}
}

func TestFIFOQueueing(t *testing.T) {
	k := sim.NewKernel()
	d := fifoDisk(k, 30*sim.Millisecond)
	var r1, r2, r3 *Request
	k.Spawn("p", 0, func(p *sim.Proc) {
		r1 = d.Submit(1, 0, false)
		r2 = d.Submit(2, 0, false)
		p.Advance(10 * sim.Millisecond)
		r3 = d.Submit(3, 0, true)
		r3.Complete.Wait(p)
	})
	k.Run()
	if r1.Done != sim.Time(30*sim.Millisecond) {
		t.Fatalf("r1 done %v", r1.Done)
	}
	if r2.Done != sim.Time(60*sim.Millisecond) || r2.QueueDelay() != 30*sim.Millisecond {
		t.Fatalf("r2 done %v delay %v", r2.Done, r2.QueueDelay())
	}
	if r3.Done != sim.Time(90*sim.Millisecond) || r3.QueueDelay() != 50*sim.Millisecond {
		t.Fatalf("r3 done %v delay %v", r3.Done, r3.QueueDelay())
	}
	if d.Served() != 3 {
		t.Fatalf("served = %d, want 3", d.Served())
	}
}

func TestIdleDiskRestartsAtNow(t *testing.T) {
	k := sim.NewKernel()
	d := fifoDisk(k, 10*sim.Millisecond)
	k.Spawn("p", 0, func(p *sim.Proc) {
		r := d.Submit(0, 0, false)
		r.Complete.Wait(p)
		p.Advance(100 * sim.Millisecond) // disk sits idle
		r2 := d.Submit(1, 0, false)
		if r2.Started != p.Now() {
			t.Errorf("idle disk should start immediately: started %v at %v", r2.Started, p.Now())
		}
		r2.Complete.Wait(p)
	})
	k.Run()
	if d.BusyTime() != 20*sim.Millisecond {
		t.Fatalf("busy = %v, want 20ms", d.BusyTime())
	}
}

func TestUtilization(t *testing.T) {
	k := sim.NewKernel()
	d := fifoDisk(k, 10*sim.Millisecond)
	k.Spawn("p", 0, func(p *sim.Proc) {
		r := d.Submit(0, 0, false)
		r.Complete.Wait(p)
	})
	k.Run()
	if u := d.Utilization(sim.Time(20 * sim.Millisecond)); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if u := d.Utilization(0); u != 0 {
		t.Fatalf("utilization at t=0 should be 0, got %v", u)
	}
}

func TestResponseStats(t *testing.T) {
	k := sim.NewKernel()
	d := fifoDisk(k, 30*sim.Millisecond)
	k.Spawn("p", 0, func(p *sim.Proc) {
		d.Submit(0, 0, false) // responds in 30
		d.Submit(1, 0, false) // queued: responds in 60
	})
	k.Run()
	rs := d.ResponseStats()
	if rs.N() != 2 || rs.Mean() != 45 {
		t.Fatalf("response stats: %v", rs.String())
	}
	qd := d.QueueDelayStats()
	if qd.Mean() != 15 {
		t.Fatalf("queue delay mean = %v, want 15", qd.Mean())
	}
}

func TestNewPanicsOnBadAccessTime(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewArray with 0 access time did not panic")
		}
	}()
	NewArray(sim.NewKernel(), 1, Fixed(0), FIFO)
}

func TestArrayBasics(t *testing.T) {
	k := sim.NewKernel()
	a := NewArray(k, 4, Fixed(30*sim.Millisecond), FIFO)
	if a.Len() != 4 {
		t.Fatalf("Len = %d", a.Len())
	}
	for i := 0; i < 4; i++ {
		if a.Disk(i).ID() != i {
			t.Fatalf("disk %d has id %d", i, a.Disk(i).ID())
		}
	}
	k.Spawn("p", 0, func(p *sim.Proc) {
		a.Submit(0, 0, 0, false)
		a.Submit(1, 1, 0, false)
		a.Submit(1, 5, 0, false)
	})
	k.Run()
	if a.TotalServed() != 3 {
		t.Fatalf("TotalServed = %d", a.TotalServed())
	}
	rs := a.ResponseStats()
	if rs.N() != 3 {
		t.Fatalf("merged response stats n = %d", rs.N())
	}
	// disks 0 and 1 busy 30 and 60ms over a 90ms horizon; 2,3 idle
	u := a.MeanUtilization(sim.Time(90 * sim.Millisecond))
	want := (30.0/90 + 60.0/90) / 4
	if diff := u - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean utilization = %v, want %v", u, want)
	}
}

func TestArrayPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewArray(0) did not panic")
		}
	}()
	NewArray(sim.NewKernel(), 0, Fixed(sim.Millisecond), FIFO)
}

// Property: for any submission schedule on one disk, responses are FIFO,
// service is back-to-back (no idle gaps while queue non-empty), and
// response time >= access time.
func TestQueueInvariants(t *testing.T) {
	check := func(gaps []uint8) bool {
		k := sim.NewKernel()
		d := fifoDisk(k, 10*sim.Millisecond)
		var reqs []*Request
		k.Spawn("p", 0, func(p *sim.Proc) {
			for _, g := range gaps {
				p.Advance(sim.Duration(g) * sim.Millisecond / 4)
				reqs = append(reqs, d.Submit(len(reqs), 0, false))
			}
		})
		k.Run()
		for i, r := range reqs {
			if r.ResponseTime() < 10*sim.Millisecond {
				return false
			}
			if r.Started < r.Enqueued || r.Done != r.Started.Add(10*sim.Millisecond) {
				return false
			}
			if i > 0 {
				prev := reqs[i-1]
				if r.Started < prev.Done { // overlapping service
					return false
				}
				if r.Enqueued <= prev.Done && r.Started != prev.Done {
					// was queued behind prev but didn't start immediately
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSeekProfile(t *testing.T) {
	p := Profile{Access: 10 * sim.Millisecond, SeekPerBlock: sim.Millisecond, MaxSeek: 5 * sim.Millisecond}
	if got := p.ServiceTime(-1, 100); got != 10*sim.Millisecond {
		t.Fatalf("first request should not seek: %v", got)
	}
	if got := p.ServiceTime(10, 13); got != 13*sim.Millisecond {
		t.Fatalf("3-block seek: %v, want 13ms", got)
	}
	if got := p.ServiceTime(13, 10); got != 13*sim.Millisecond {
		t.Fatalf("seek should be symmetric: %v", got)
	}
	if got := p.ServiceTime(0, 100); got != 15*sim.Millisecond {
		t.Fatalf("seek should cap at MaxSeek: %v, want 15ms", got)
	}
	uncapped := Profile{Access: 10 * sim.Millisecond, SeekPerBlock: sim.Millisecond}
	if got := uncapped.ServiceTime(0, 100); got != 110*sim.Millisecond {
		t.Fatalf("uncapped seek: %v, want 110ms", got)
	}
}

func TestSeekingDiskTiming(t *testing.T) {
	k := sim.NewKernel()
	d := NewArray(k, 1, Profile{Access: 10 * sim.Millisecond, SeekPerBlock: sim.Millisecond}, FIFO).Disk(0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		r1 := d.Submit(0, 0, false) // no seek: 10ms
		r2 := d.Submit(1, 5, false) // 5-block seek: 15ms
		r3 := d.Submit(2, 5, false) // same position: 10ms
		r3.Complete.Wait(p)
		if r1.Done != sim.Time(10*sim.Millisecond) {
			t.Errorf("r1 done %v", r1.Done)
		}
		if r2.Done != sim.Time(25*sim.Millisecond) {
			t.Errorf("r2 done %v, want 25ms", r2.Done)
		}
		if r3.Done != sim.Time(35*sim.Millisecond) {
			t.Errorf("r3 done %v, want 35ms", r3.Done)
		}
	})
	k.Run()
	if d.BusyTime() != 35*sim.Millisecond {
		t.Fatalf("busy = %v", d.BusyTime())
	}
	if d.Profile().SeekPerBlock != sim.Millisecond {
		t.Fatal("profile accessor wrong")
	}
}

func TestNewWithProfilePanics(t *testing.T) {
	for i, p := range []Profile{
		{Access: 0},
		{Access: sim.Millisecond, SeekPerBlock: -1},
		{Access: sim.Millisecond, MaxSeek: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("profile %d did not panic", i)
				}
			}()
			NewArray(sim.NewKernel(), 1, p, FIFO)
		}()
	}
}

// Submit refuses a negative physical block and ids past int32, which a
// request record could not hold, and NewArray a disk count past int32
// before it allocates anything.
func TestSubmitPanicsOnNegativePhysical(t *testing.T) {
	k := sim.NewKernel()
	d := fifoDisk(k, sim.Millisecond)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"negative physical block", func() { d.Submit(0, -1, false) }},
		{"physical block past int32", func() { d.Submit(0, math.MaxInt32+1, false) }},
		{"block past int32", func() { d.Submit(math.MaxInt32+1, 0, false) }},
		{"disk count past int32", func() { NewArray(k, math.MaxInt32+1, Fixed(sim.Millisecond), FIFO) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.call()
		}()
	}
}

func TestSchedPolicyStringAndParse(t *testing.T) {
	for _, p := range SchedPolicies {
		got, err := ParseSchedPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseSchedPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseSchedPolicy("lifo"); err == nil {
		t.Fatal("ParseSchedPolicy accepted unknown name")
	}
	if SchedPolicy(9).String() == "" {
		t.Fatal("unknown policy should format")
	}
}

func TestNewScheduledPanicsOnUnknownPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy did not panic")
		}
	}()
	NewArray(sim.NewKernel(), 1, Fixed(sim.Millisecond), SchedPolicy(9))
}

// seekDisk returns a disk whose service is 10ms + 1ms per block of head
// travel, so scheduling decisions are visible in the timings.
func seekDisk(k *sim.Kernel, policy SchedPolicy) *Disk {
	return NewArray(k, 1, Profile{Access: 10 * sim.Millisecond, SeekPerBlock: sim.Millisecond}, policy).Disk(0)
}

func TestSSTFOrdersByProximity(t *testing.T) {
	k := sim.NewKernel()
	d := seekDisk(k, SSTF)
	var order []int
	watch := func(r *Request) {
		r.Complete.OnFire(func() { order = append(order, int(r.Physical)) })
	}
	k.Spawn("p", 0, func(p *sim.Proc) {
		// First request pins the head at 0; then queue far and near.
		watch(d.Submit(0, 0, false))
		watch(d.Submit(1, 100, false))
		watch(d.Submit(2, 5, false))
		watch(d.Submit(3, 50, false))
		p.Advance(sim.Second)
	})
	k.Run()
	want := []int{0, 5, 50, 100}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("SSTF service order %v, want %v", order, want)
		}
	}
}

func TestSCANSweeps(t *testing.T) {
	k := sim.NewKernel()
	d := seekDisk(k, SCAN)
	var order []int
	watch := func(r *Request) {
		r.Complete.OnFire(func() { order = append(order, int(r.Physical)) })
	}
	k.Spawn("p", 0, func(p *sim.Proc) {
		watch(d.Submit(0, 50, false)) // head to 50
		// While serving, queue on both sides.
		watch(d.Submit(1, 60, false))
		watch(d.Submit(2, 40, false))
		watch(d.Submit(3, 80, false))
		watch(d.Submit(4, 20, false))
		p.Advance(sim.Second)
	})
	k.Run()
	// Sweep up from 50: 60, 80; then reverse: 40, 20.
	want := []int{50, 60, 80, 40, 20}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("SCAN service order %v, want %v", order, want)
		}
	}
}

func TestSSTFBeatsFIFOUnderSeeks(t *testing.T) {
	run := func(policy SchedPolicy) sim.Duration {
		k := sim.NewKernel()
		d := seekDisk(k, policy)
		var last sim.Time
		k.Spawn("p", 0, func(p *sim.Proc) {
			// A scattered batch: FIFO seeks wildly, SSTF sorts it out.
			reqs := []*Request{}
			for _, phys := range []int{0, 90, 10, 80, 20, 70, 30, 60} {
				reqs = append(reqs, d.Submit(0, phys, false))
			}
			for _, r := range reqs {
				r.Complete.Wait(p)
			}
			last = p.Now()
		})
		k.Run()
		return sim.Duration(last)
	}
	fifo, sstf := run(FIFO), run(SSTF)
	if sstf >= fifo {
		t.Fatalf("SSTF (%v) should beat FIFO (%v) on a scattered batch", sstf, fifo)
	}
}

func TestEstDoneExactForFIFOFixed(t *testing.T) {
	k := sim.NewKernel()
	d := fifoDisk(k, 10*sim.Millisecond)
	var reqs []*Request
	k.Spawn("p", 0, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			reqs = append(reqs, d.Submit(i, 0, false))
		}
		reqs[4].Complete.Wait(p)
	})
	k.Run()
	for i, r := range reqs {
		if r.EstDone != r.Done {
			t.Fatalf("req %d: estimate %v != actual %v (must be exact for FIFO+fixed)", i, r.EstDone, r.Done)
		}
	}
}

func TestQueueLength(t *testing.T) {
	k := sim.NewKernel()
	d := fifoDisk(k, 10*sim.Millisecond)
	k.Spawn("p", 0, func(p *sim.Proc) {
		d.Submit(0, 0, false)
		d.Submit(1, 0, false)
		d.Submit(2, 0, false)
		if d.QueueLength() != 2 {
			t.Errorf("queue length = %d, want 2 (one in service)", d.QueueLength())
		}
		if d.Policy() != FIFO {
			t.Error("policy accessor wrong")
		}
	})
	k.Run()
}

func TestSSTFStarvationBound(t *testing.T) {
	k := sim.NewKernel()
	d := seekDisk(k, SSTF)
	var farDone sim.Time
	k.Spawn("p", 0, func(p *sim.Proc) {
		// Pin the head at 0, then queue one far request and keep feeding
		// near-head requests forever. Without aging, SSTF would never
		// serve the far request.
		d.Submit(0, 0, false)
		far := d.Submit(1, 10000, false)
		for i := 0; i < 200; i++ {
			d.Submit(2+i, i%4, false)
			p.Advance(5 * sim.Millisecond)
		}
		far.Complete.Wait(p)
		farDone = p.Now()
	})
	k.Run()
	// Aged SSTF must serve the far request shortly after the starvation
	// bound (32 × 10 ms) plus its 10 s seek — not after all 200 near
	// requests (which would exceed 2000 ms of queueing alone before the
	// seek even starts).
	bound := sim.Time(starvationBound*10*sim.Millisecond) + sim.Time(11*sim.Second)
	if farDone > bound {
		t.Fatalf("far request served at %v, starved past %v", farDone, bound)
	}
}

// SCAN serves a request at the head's own position before moving on:
// it lies at distance 0 in either sweep direction.
func TestSCANServesAtHead(t *testing.T) {
	k := sim.NewKernel()
	d := seekDisk(k, SCAN)
	var order []int
	watch := func(r *Request) {
		r.Complete.OnFire(func() { order = append(order, int(r.Block)) })
	}
	watch(d.Submit(0, 50, false)) // head to 50
	watch(d.Submit(1, 60, false))
	watch(d.Submit(2, 50, false)) // at the head once block 0 is served
	watch(d.Submit(3, 40, false))
	k.Run()
	want := []int{0, 2, 1, 3}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("SCAN service order %v, want %v", order, want)
	}
}
