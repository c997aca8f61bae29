package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/obs"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Millisecond)
	if t1 != Time(5000) {
		t.Fatalf("Add: got %d, want 5000", t1)
	}
	if d := t1.Sub(t0); d != 5*Millisecond {
		t.Fatalf("Sub: got %v, want 5ms", d)
	}
	if ms := (30 * Millisecond).Millis(); ms != 30 {
		t.Fatalf("Millis: got %v, want 30", ms)
	}
	if s := (2 * Second).Seconds(); s != 2 {
		t.Fatalf("Seconds: got %v, want 2", s)
	}
	if d := Millis(1.5); d != 1500 {
		t.Fatalf("Millis(1.5): got %d, want 1500", d)
	}
}

func TestMillisPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Millis(-1) did not panic")
		}
	}()
	Millis(-1)
}

func TestDurationString(t *testing.T) {
	// limit is the longest span whose nanoseconds fit time.Duration;
	// past it the microseconds are formatted directly, in the same form.
	const limit = Duration(1<<63-1) / 1000
	for _, c := range []struct {
		d    Duration
		want string
	}{
		{1500 * Microsecond, "1.5ms"},
		{-1500 * Microsecond, "-1.5ms"},
		{limit, "2562047h47m16.854775s"},
		{limit + 1, "2562047h47m16.854776s"},
		{-limit - 1, "-2562047h47m16.854776s"},
		{limit + 43*Second + 145225, "2562047h48m0s"},
		{Duration(MaxTime), "2562047788h0m54.775807s"},
		{-Duration(MaxTime) - 1, "-2562047788h0m54.775808s"},
	} {
		if s := c.d.String(); s != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(c.d), s, c.want)
		}
	}
	if s := MaxTime.String(); s != "2562047788h0m54.775807s" {
		t.Errorf("MaxTime.String() = %q", s)
	}
}

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(30, func() { order = append(order, 3) })
	k.Schedule(10, func() { order = append(order, 1) })
	k.Schedule(20, func() { order = append(order, 2) })
	k.Run()
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("events out of order: %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("final clock: got %v, want 30", k.Now())
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(5, func() { order = append(order, i) })
	}
	k.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events not FIFO: %v", order)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.Schedule(5, func() {})
	})
	k.Run()
}

func TestProcAdvance(t *testing.T) {
	k := NewKernel()
	var at []Time
	k.Spawn("p", 0, func(p *Proc) {
		at = append(at, p.Now())
		p.Advance(10 * Millisecond)
		at = append(at, p.Now())
		p.Advance(0) // no-op
		at = append(at, p.Now())
	})
	k.Run()
	want := []Time{0, 10000, 10000}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("at[%d] = %v, want %v", i, at[i], want[i])
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var trace []string
	mk := func(name string, step Duration) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, fmt.Sprintf("%s@%d", name, p.Now()))
				p.Advance(step)
			}
		}
	}
	k.Spawn("a", 0, mk("a", 10))
	k.Spawn("b", 0, mk("b", 15))
	k.Run()
	want := "[a@0 b@0 a@10 b@15 a@20]"
	if got := fmt.Sprint(trace[:5]); got != want {
		t.Fatalf("interleaving: got %v, want %v", got, want)
	}
}

func TestEventWaitAndFire(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var waited Duration
	k.Spawn("waiter", 0, func(p *Proc) {
		waited = ev.Wait(p)
	})
	k.Spawn("firer", 0, func(p *Proc) {
		p.Advance(25)
		ev.Fire()
	})
	k.Run()
	if waited != 25 {
		t.Fatalf("waited %v, want 25", waited)
	}
	if !ev.Fired() || ev.FiredAt() != 25 {
		t.Fatalf("event state: fired=%v at=%v", ev.Fired(), ^ev.fired)
	}
}

func TestEventWaitAfterFireIsFree(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var waited Duration = -1
	k.Spawn("p", 0, func(p *Proc) {
		ev.Fire()
		p.Advance(10)
		waited = ev.Wait(p)
	})
	k.Run()
	if waited != 0 {
		t.Fatalf("wait on fired event took %v, want 0", waited)
	}
}

func TestEventMultipleWaiters(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	released := 0
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), 0, func(p *Proc) {
			ev.Wait(p)
			released++
		})
	}
	k.Spawn("firer", 0, func(p *Proc) {
		p.Advance(100)
		if ev.Waiters() != 5 {
			t.Errorf("waiters = %d, want 5", ev.Waiters())
		}
		ev.Fire()
	})
	k.Run()
	if released != 5 {
		t.Fatalf("released = %d, want 5", released)
	}
}

func TestEventDoubleFirePanics(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	ev.Fire() // kernel at time 0; Fire outside Run is fine for this test
	defer func() {
		if recover() == nil {
			t.Fatal("double Fire did not panic")
		}
	}()
	ev.Fire()
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	k.Spawn("stuck", 0, func(p *Proc) { ev.Wait(p) })
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked run did not panic")
		}
	}()
	k.Run()
}

func TestWaitQueueFIFO(t *testing.T) {
	k := NewKernel()
	q := NewWaitQueue(k)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, 0, func(p *Proc) {
			if waited := q.Sleep(p); waited != 10 {
				t.Errorf("%s slept %v, want 10", name, waited)
			}
			order = append(order, name)
		})
	}
	k.Schedule(10, func() {
		if q.Len() != 3 {
			t.Errorf("Len = %d before WakeAll, want 3", q.Len())
		}
		q.WakeAll()
		if q.Len() != 0 {
			t.Errorf("Len = %d after WakeAll, want 0", q.Len())
		}
	})
	k.Run()
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("wake order: %v", order)
	}
}

// TestWaitQueueArrivalOrder: processes and waiters share one FIFO, so a
// waiter queued before a sleeping process wakes before it, and one
// queued after it wakes after it.
func TestWaitQueueArrivalOrder(t *testing.T) {
	k := NewKernel()
	q := NewWaitQueue(k)
	var log []string
	q.AddWaiter(&waked{&log, "early"})
	k.Spawn("proc", 0, func(p *Proc) {
		q.Sleep(p)
		log = append(log, "proc")
	})
	k.Schedule(10, func() {
		q.AddWaiter(&waked{&log, "late"})
		q.WakeAll()
	})
	k.Run()
	if fmt.Sprint(log) != "[early proc late]" {
		t.Fatalf("wake order: %v", log)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	k := NewKernel()
	var childRan bool
	k.Spawn("parent", 0, func(p *Proc) {
		p.Advance(5)
		k.Spawn("child", p.Now().Add(5), func(c *Proc) {
			childRan = true
			if c.Now() != 10 {
				t.Errorf("child started at %v, want 10", c.Now())
			}
		})
		p.Advance(20)
	})
	k.Run()
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestProcName(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("worker-7", 0, func(p *Proc) {})
	if p.Name() != "worker-7" {
		t.Fatalf("Name: got %q", p.Name())
	}
	if p.Kernel() != k {
		t.Fatal("Kernel accessor mismatch")
	}
	k.Run()
}

// TestDeterminism runs a moderately complex random workload twice and
// requires byte-identical traces.
func TestDeterminism(t *testing.T) {
	runOnce := func(seed int64) string {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		ev := NewEvent(k)
		var trace []string
		for i := 0; i < 10; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), Time(rng.Intn(50)), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Advance(Duration(1 + (i*7+j*13)%29))
					trace = append(trace, fmt.Sprintf("%s:%d@%d", p.Name(), j, p.Now()))
				}
				if i == 3 {
					ev.Fire()
				}
				if i == 4 {
					ev.Wait(p)
					trace = append(trace, fmt.Sprintf("p4 woke @%d", p.Now()))
				}
			})
		}
		k.Run()
		return fmt.Sprint(trace)
	}
	a, b := runOnce(42), runOnce(42)
	if a != b {
		t.Fatalf("nondeterministic execution:\n%s\n%s", a, b)
	}
}

func TestHeapStress(t *testing.T) {
	k := NewKernel()
	rng := rand.New(rand.NewSource(1))
	var fired []Time
	for i := 0; i < 5000; i++ {
		at := Time(rng.Intn(100000))
		k.Schedule(at, func() { fired = append(fired, k.Now()) })
	}
	k.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("heap order violated at %d: %v < %v", i, fired[i], fired[i-1])
		}
	}
	if len(fired) != 5000 {
		t.Fatalf("fired %d events, want 5000", len(fired))
	}
}

func TestEventOnFire(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var order []string
	ev.OnFire(func() { order = append(order, "cb1") })
	ev.OnFire(func() { order = append(order, "cb2") })
	k.Spawn("waiter", 0, func(p *Proc) {
		ev.Wait(p)
		order = append(order, "waiter")
	})
	k.Spawn("firer", 0, func(p *Proc) {
		p.Advance(10)
		ev.Fire()
	})
	k.Run()
	if fmt.Sprint(order) != "[cb1 cb2 waiter]" {
		t.Fatalf("callbacks must run before waiters: %v", order)
	}
}

func TestEventOnFireAfterFired(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	ev.Fire()
	ran := false
	ev.OnFire(func() { ran = true })
	if !ran {
		t.Fatal("OnFire on a fired event must run immediately")
	}
}

func TestDeadlockPanicNamesProcesses(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k).SetLabel("disk I/O completion")
	q := NewWaitQueue(k).SetLabel("a freed cache frame")
	k.Spawn("proc3", 0, func(p *Proc) { ev.Wait(p) })
	k.Spawn("proc7", 0, func(p *Proc) { q.Sleep(p) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked run did not panic")
		}
		derr, ok := r.(*DeadlockError)
		if !ok {
			t.Fatalf("panic value %T, want *DeadlockError", r)
		}
		if derr.Active != 2 || len(derr.Blocked) != 2 {
			t.Errorf("DeadlockError has Active=%d Blocked=%v, want 2 and 2 entries",
				derr.Active, derr.Blocked)
		}
		msg := derr.Error()
		for _, want := range []string{
			"2 process(es)",
			"proc3 (waiting on disk I/O completion)",
			"proc7 (waiting on a freed cache frame)",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock message %q missing %q", msg, want)
			}
		}
	}()
	k.Run()
}

func TestDeadlockPanicTruncatesLongList(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	for i := 0; i < 12; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), 0, func(p *Proc) { ev.Wait(p) })
	}
	defer func() {
		derr, _ := recover().(*DeadlockError)
		if derr == nil {
			t.Fatal("expected *DeadlockError panic")
		}
		if len(derr.Blocked) != 8 {
			t.Errorf("DeadlockError records %d processes, want 8", len(derr.Blocked))
		}
		if msg := derr.Error(); !strings.Contains(msg, "… and 4 more") {
			t.Errorf("deadlock message %q should truncate after 8 entries", msg)
		}
	}()
	k.Run()
}

// waked records Wake calls for Waiter tests.
type waked struct {
	log   *[]string
	label string
}

func (w *waked) Wake() { *w.log = append(*w.log, w.label) }

func TestScheduleWake(t *testing.T) {
	k := NewKernel()
	var log []string
	k.ScheduleWake(20, &waked{&log, "b"})
	k.ScheduleWake(10, &waked{&log, "a"})
	k.AfterWake(30, &waked{&log, "c"})
	k.Run()
	if fmt.Sprint(log) != "[a b c]" {
		t.Fatalf("wake order: %v", log)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %v, want 30", k.Now())
	}
}

func TestScheduleWakeInPastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleWake in the past did not panic")
			}
		}()
		k.ScheduleWake(5, &waked{new([]string), "x"})
	})
	k.Run()
}

func TestEventAddWaiterOrdering(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var log []string
	ev.AddWaiter(&waked{&log, "c1"})
	ev.AddWaiter(&waked{&log, "c2"})
	ev.AddWaiter(&waked{&log, "c3"})
	k.Spawn("waiter", 0, func(p *Proc) {
		ev.Wait(p)
		log = append(log, "proc")
	})
	k.Spawn("firer", 0, func(p *Proc) {
		p.Advance(5)
		ev.Fire()
	})
	k.Run()
	// Continuations fire in registration order, before any process.
	if fmt.Sprint(log) != "[c1 c2 c3 proc]" {
		t.Fatalf("wake order: %v", log)
	}
}

func TestEventAddWaiterAfterFired(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	ev.Fire()
	var log []string
	ev.AddWaiter(&waked{&log, "late"})
	if fmt.Sprint(log) != "[late]" {
		t.Fatal("AddWaiter on a fired event must wake immediately")
	}
}

func TestAddBlockedOnFiredEventPanics(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	ev.Fire()
	defer func() {
		if recover() == nil {
			t.Fatal("AddBlocked on fired event did not panic")
		}
	}()
	ev.AddBlocked(&waked{new([]string), "late"})
}

// TestEventBlockedPartiesQueueFIFO pins the blocked-party wake order:
// at a firing, continuations run inline; blocked processes and waiters
// parked with AddBlocked wake in arrival order, behind every event
// already due at that instant.
func TestEventBlockedPartiesQueueFIFO(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var log []string
	k.Spawn("p1", 0, func(p *Proc) {
		ev.Wait(p)
		log = append(log, "p1")
	})
	k.Schedule(1, func() { ev.AddBlocked(&waked{&log, "w1"}) })
	k.Spawn("p2", 2, func(p *Proc) {
		ev.Wait(p)
		log = append(log, "p2")
	})
	k.Schedule(3, func() {
		ev.AddBlocked(&waked{&log, "w2"})
		ev.AddWaiter(&waked{&log, "cont"})
		if ev.Waiters() != 4 {
			t.Errorf("waiters = %d, want 4", ev.Waiters())
		}
	})
	k.Schedule(10, func() { ev.Fire() })
	k.Schedule(10, func() { log = append(log, "due") })
	k.Run()
	if got, want := fmt.Sprint(log), "[cont due p1 w1 p2 w2]"; got != want {
		t.Fatalf("log = %s, want %s", got, want)
	}
}

// TestAdvanceFastPathOrdering pins that the in-place clock advance is
// observationally identical to a heap round trip: a process advancing
// alone (fast path) and one interleaving with scheduled events (slow
// path) see exactly the times the blocking semantics promise.
func TestAdvanceFastPathOrdering(t *testing.T) {
	k := NewKernel()
	var log []string
	k.Schedule(15, func() { log = append(log, fmt.Sprintf("cb@%d", k.Now())) })
	k.Spawn("p", 0, func(p *Proc) {
		p.Advance(10) // nothing due before 10: fast path
		log = append(log, fmt.Sprintf("p@%d", p.Now()))
		p.Advance(10) // crosses the callback at 15: must yield to it
		log = append(log, fmt.Sprintf("p@%d", p.Now()))
		p.Advance(10) // heap empty again: fast path
		log = append(log, fmt.Sprintf("p@%d", p.Now()))
	})
	k.Run()
	if fmt.Sprint(log) != "[p@10 cb@15 p@20 p@30]" {
		t.Fatalf("order: %v", log)
	}
}

func TestLabels(t *testing.T) {
	k := NewKernel()
	if got := NewEvent(k).Label(); got != "an event" {
		t.Errorf("default event label = %q", got)
	}
	if got := NewEvent(k).SetLabel("barrier release").Label(); got != "barrier release" {
		t.Errorf("event label = %q", got)
	}
	var ev Event
	ev.Init(k, "disk I/O completion")
	if got := ev.Label(); got != "disk I/O completion" {
		t.Errorf("embedded event label = %q", got)
	}
	if got := NewWaitQueue(k).Label(); got != "a wait queue" {
		t.Errorf("default queue label = %q", got)
	}
	if got := NewWaitQueue(k).SetLabel("write-behind drain").Label(); got != "write-behind drain" {
		t.Errorf("queue label = %q", got)
	}
}

// TestObserverCountsEventKinds pins what the kernel counters count when
// every kind of event shares one record: a Schedule callback is an
// event only, a ScheduleWake timer is a wake, and a spawn, a slow-path
// Advance and a process released by Event.Fire are steps. The sink has
// a SetClock method, so SetObserver hands it the kernel clock, and each
// increment is read at the instant it happened.
func TestObserverCountsEventKinds(t *testing.T) {
	k := NewKernel()
	sink := &clockedSink{}
	k.SetObserver(sink)
	ev := NewEvent(k)
	var log []string
	ran := false
	k.Schedule(5, func() { ran = true })
	k.ScheduleWake(7, &waked{&log, "timer"})
	k.Spawn("advancer", 0, func(p *Proc) {
		p.Advance(10) // events are due before 10, so this is a queued step
		ev.Fire()
	})
	var waited Duration
	k.Spawn("waiter", 0, func(p *Proc) { waited = ev.Wait(p) })
	k.Run()
	if !ran || len(log) != 1 || waited != 10 {
		t.Fatalf("ran=%v wakes=%v waited=%v", ran, log, waited)
	}
	got := sink.Snapshot()
	for _, c := range []struct {
		ctr  obs.Counter
		want int64
	}{
		{obs.CtrKernelEvents, 6}, // callback, timer, 2 spawns, Advance, Fire's release
		{obs.CtrKernelWakes, 1},  // the timer
		{obs.CtrKernelSteps, 4},  // 2 spawns, Advance, Fire's release
		{obs.CtrKernelSpawns, 2},
	} {
		if got[c.ctr] != c.want {
			t.Errorf("counter %v = %d, want %d", c.ctr, got[c.ctr], c.want)
		}
	}
	if !slices.IsSorted(sink.at) || !slices.Equal(slices.Compact(slices.Clone(sink.at)), []int64{0, 5, 7, 10}) {
		t.Errorf("increments read the clock at %v, want the instants 0, 5, 7 and 10 in order", sink.at)
	}
}

// clockedSink is a CounterSink that reads the clock SetObserver handed
// it at each increment.
type clockedSink struct {
	obs.CounterSink
	now func() int64
	at  []int64
}

func (s *clockedSink) SetClock(now func() int64) { s.now = now }

func (s *clockedSink) Add(c obs.Counter, delta int64) {
	at := int64(-1) // no clock was handed over
	if s.now != nil {
		at = s.now()
	}
	s.at = append(s.at, at)
	s.CounterSink.Add(c, delta)
}

// counter is a Waiter that counts its wakes.
type counter struct{ n int }

func (c *counter) Wake() { c.n++ }

// spareChain fires left events, one per instant, each gathering 16
// blocked parties or 16 continuations, so each event after the first
// can take the overflow list its predecessor handed back.
type spareChain struct {
	k       *Kernel
	ev      Event
	ws      [16]counter
	left    int
	blocked bool
}

func (c *spareChain) Wake() {
	if c.left == 0 {
		return
	}
	c.left--
	c.k.AfterWake(1, c)
	c.ev = Event{}
	c.ev.Init(c.k, "chain")
	for i := range c.ws {
		if c.blocked {
			c.ev.AddBlocked(&c.ws[i])
		} else {
			c.ev.AddWaiter(&c.ws[i])
		}
	}
	c.ev.Fire()
}

// Once the kernel holds a spare list, an event with 16 blocked parties
// or 16 continuations allocates nothing, and every party still wakes
// once per firing.
func TestEventReusesSpareSlices(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		run := func(events int) float64 {
			return testing.AllocsPerRun(5, func() {
				k := NewKernel()
				c := &spareChain{k: k, left: events, blocked: blocked}
				k.ScheduleWake(0, c)
				k.Run()
				for i := range c.ws {
					if c.ws[i].n != events {
						t.Fatalf("blocked=%v: party %d woke %d times in %d firings", blocked, i, c.ws[i].n, events)
					}
				}
			})
		}
		if one, ten := run(1), run(10); ten != one {
			t.Errorf("blocked=%v: ten events allocate %v, one event %v; want the same", blocked, ten, one)
		}
	}
}

// TestFirstOverflowSlicesCarved pins the t=0 burst of a cluster run:
// 4,000 events each gather a second continuation at one instant, before
// any event has fired to hand a list back, and the overflow lists come
// from blocks of 16: about one allocation per 16 events, not one per
// event. Every continuation still wakes once, a third party
// still fits, and Run drops the blocks.
func TestFirstOverflowSlicesCarved(t *testing.T) {
	const n = 4000
	evs := make([]Event, n)
	var c counter
	var k *Kernel
	gather := func() {
		k = NewKernel()
		for i := range evs {
			evs[i] = Event{}
			evs[i].Init(k, "fill")
			evs[i].AddWaiter(&c)
			evs[i].AddWaiter(&c)
		}
	}
	a, limit := testing.AllocsPerRun(5, gather), float64((n+15)/16+8)
	t.Logf("%d events gathering a second continuation: %v allocations (limit %v)", n, a, limit)
	if a > limit {
		t.Errorf("%d events gathering a second continuation allocate %v objects, want at most %v", n, a, limit)
	}
	gather()
	evs[0].AddWaiter(&c) // outgrows its list's inline slot
	c.n = 0
	k.Schedule(0, func() {
		for i := range evs {
			evs[i].Fire()
		}
	})
	k.Run()
	if c.n != 2*n+1 {
		t.Errorf("%d continuations woke, want %d", c.n, 2*n+1)
	}
	if k.spare != nil || k.block != nil {
		t.Errorf("Run kept %d spare lists and a block of %d", len(k.spare), len(k.block))
	}
}

// Run wakes the run-end waiters in registration order once its queue
// is empty, at every run, and drops the kernel's spare lists.
func TestOnRunEnd(t *testing.T) {
	k := NewKernel()
	var log []string
	k.OnRunEnd(funcWaiter(func() { log = append(log, fmt.Sprintf("a@%v/%d", k.Now(), k.PendingEvents())) }))
	k.OnRunEnd(&waked{&log, "b"})
	k.OnRunEnd(&waked{&log, "c"})
	ev := NewEvent(k)
	ev.AddWaiter(&counter{})
	ev.AddWaiter(&counter{})
	k.Schedule(5, ev.Fire)
	k.Schedule(5, func() {
		if len(k.spare) != 1 {
			t.Errorf("%d spare lists after a firing with two continuations, want 1", len(k.spare))
		}
	})
	k.Run()
	k.Schedule(7, func() {})
	k.Run()
	if got, want := fmt.Sprint(log), "[a@5µs/0 b c a@7µs/0 b c]"; got != want {
		t.Fatalf("run-end calls %s, want %s", got, want)
	}
	if k.spare != nil {
		t.Fatalf("%d spare lists kept after the run", len(k.spare))
	}
}

// TestRecordSizes pins the event record's size: every disk request
// embeds one, so each byte is paid once per block transfer record.
func TestRecordSizes(t *testing.T) {
	got, limit := unsafe.Sizeof(Event{}), uintptr(80)
	t.Logf("Event: %d bytes", got)
	if got > limit {
		t.Errorf("Event is %d bytes, want at most %d", got, limit)
	}
}
