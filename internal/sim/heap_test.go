package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refEvent is one pending event of the sorted reference.
type refEvent struct {
	at Time
	w  Waiter
}

// sortedQueue is the reference the event queue is checked against: a
// slice kept in (at, push order) by inserting each event behind every
// one due at or before its time.
type sortedQueue []refEvent

func (q *sortedQueue) push(at Time, w Waiter) {
	i := sort.Search(len(*q), func(i int) bool { return (*q)[i].at > at })
	*q = append(*q, refEvent{})
	copy((*q)[i+1:], (*q)[i:])
	(*q)[i] = refEvent{at, w}
}

func (q *sortedQueue) pop() refEvent {
	e := (*q)[0]
	*q = (*q)[1:]
	return e
}

// tag is a waiter that only names an event: each is a distinct pointer.
type tag struct{ id int }

func (*tag) Wake() {}

// popCompare pops one event from each queue and asserts the same time
// and the same waiter, after checking both lengths and peekTime.
func popCompare(t *testing.T, where string, h *radixHeap, ref *sortedQueue) Time {
	t.Helper()
	if h.n != len(*ref) {
		t.Fatalf("%s: queue len %d, reference len %d", where, h.n, len(*ref))
	}
	if hp, rp := h.peekTime(), (*ref)[0].at; hp != rp {
		t.Fatalf("%s: peekTime %d, reference %d", where, hp, rp)
	}
	at, w := h.pop()
	re := ref.pop()
	if at != re.at || w != re.w {
		t.Fatalf("%s: queue popped %v at %d, reference %v at %d", where, w, at, re.w, re.at)
	}
	return at
}

// later returns now+d, or MaxTime where that would overflow.
func later(now, d Time) Time {
	if d > MaxTime-now {
		return MaxTime
	}
	return now + d
}

// TestEventHeapMatchesSortedReference is the ordering property test:
// the queue pops the exact (at, push order) sequence a sorted reference
// does, waiter for waiter — on random interleaved push/pop streams with
// same-instant ties and far-future times up to MaxTime, on pushes that
// land before an already-peeked head (Advance's fast path does this),
// and on same-instant bursts spread across many orders of magnitude.
func TestEventHeapMatchesSortedReference(t *testing.T) {
	t.Parallel()
	t.Run("random-streams", func(t *testing.T) {
		for trial := 0; trial < 200; trial++ {
			randomStream(t, trial)
		}
	})
	t.Run("push-after-peek", func(t *testing.T) {
		var h radixHeap
		var ref sortedQueue
		push := func(at Time) {
			w := &tag{len(ref)}
			h.push(at, w)
			ref.push(at, w)
		}
		push(100)
		push(200)
		if got := h.peekTime(); got != 100 {
			t.Fatalf("peekTime = %v", got)
		}
		push(50)  // before the peeked head
		push(100) // same instant as the head, behind it
		push(150) // between the head and the rest
		popCompare(t, "push-after-peek", &h, &ref)
		push(50) // at the instant just popped
		push(75) // below the head again
		for len(ref) > 0 {
			popCompare(t, "push-after-peek", &h, &ref)
		}
	})
	t.Run("bursts", func(t *testing.T) {
		var h radixHeap
		var ref sortedQueue
		for _, base := range []Time{3 << 24, 0, MaxTime - 1, 1 << 24, 63, 1<<24 - 1, 64, 1 << 62, 1 << 18, 1 << 12} {
			for j := 0; j < 5; j++ {
				w := &tag{len(ref)}
				h.push(base+Time(j%2), w)
				ref.push(base+Time(j%2), w)
			}
		}
		for len(ref) > 0 {
			popCompare(t, "bursts", &h, &ref)
		}
	})
}

// randomStream drives one seeded random push/pop stream through the
// queue and the reference, then drains both. Like the kernel it never
// pushes before the last pop, and now sometimes moves forward short of
// the head without a pop, as Advance's fast path moves the clock.
func randomStream(t *testing.T, trial int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(trial)))
	where := fmt.Sprintf("trial %d", trial)
	var h radixHeap
	var ref sortedQueue
	var now Time
	push := func(at Time) {
		w := &tag{len(ref)}
		h.push(at, w)
		ref.push(at, w)
	}
	ops := 300 + rng.Intn(700)
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(20); {
		case r < 10: // push at a random horizon
			var d Time
			switch rng.Intn(5) {
			case 0:
				d = 0 // same instant as now
			case 1:
				d = Time(rng.Intn(64))
			case 2:
				d = Time(rng.Intn(1 << 12))
			case 3:
				d = Time(rng.Intn(1 << 20))
			case 4:
				d = Time(1<<24) + Time(rng.Intn(1<<26)) // far future
			}
			push(later(now, d))
		case r < 11: // up to MaxTime
			push(max(now, MaxTime-Time(rng.Intn(4))))
		case r < 13 && h.n > 0: // move now short of the peeked head
			if head := h.peekTime(); head > now {
				now += Time(rng.Int63n(int64(head - now)))
			}
		default: // pop (advances time, like the kernel loop)
			if h.n > 0 {
				now = popCompare(t, where, &h, &ref)
			}
		}
	}
	for len(ref) > 0 {
		popCompare(t, where+" drain", &h, &ref)
	}
	if h.n != 0 || h.mask != 0 {
		t.Fatalf("%s: queue retains %d events (mask %#x) after the reference drained", where, h.n, h.mask)
	}
}

// TestEventHeapReleasesOnDrain checks the burst rule: a queue that
// drains with more than heapKeep records of slab capacity drops its slab
// and free list, and a smaller one keeps them for reuse, holding no
// waiter alive.
func TestEventHeapReleasesOnDrain(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ n, presize int }{{10, 0}, {heapKeep, heapKeep}, {heapKeep + 1, heapKeep}, {2 * heapKeep, 0}} {
		var h radixHeap
		h.slots = make([]event, 0, c.presize)
		for i := 0; i < c.n; i++ {
			h.push(Time(c.n-i), &tag{i})
		}
		slab := cap(h.slots)
		for h.n > 0 {
			h.pop()
		}
		if released := h.slots == nil && h.free == 0; released != (slab > heapKeep) {
			t.Errorf("%d events in a slab of %d: released = %v", c.n, slab, released)
		}
		for i := range h.slots {
			if h.slots[i].w != nil {
				t.Fatalf("%d events: freed record %d still holds its waiter", c.n, i)
			}
		}
		// A kept slab serves the same number of events again from its
		// free list, record 0 (freed last here) included.
		used := len(h.slots)
		for i := 0; i < c.n; i++ {
			h.push(Time(c.n), &tag{i})
		}
		if len(h.slots) != max(used, c.n) {
			t.Errorf("%d events pushed after the drain: slab of %d records, want %d", c.n, len(h.slots), max(used, c.n))
		}
	}
}

// TestWarmQueueAllocatesNothing pins the steady state: once the slab has
// seen its high-water mark, pushes and pops reuse freed records and
// allocate nothing, through the kernel as through the queue itself.
func TestWarmQueueAllocatesNothing(t *testing.T) {
	var h radixHeap
	ws := make([]tag, 1000)
	for i := range ws {
		h.push(Time(i*7%1000), &ws[i])
	}
	now := Time(0)
	if a := testing.AllocsPerRun(20, func() {
		for i := 0; i < 1000; i++ {
			at, w := h.pop()
			now = at
			h.push(now+Time(i%97), w)
		}
	}); a != 0 {
		t.Errorf("warm queue: %v allocations per 1000 holds, want 0", a)
	}

	k := NewKernel()
	m := &holdModel{k: k, incs: []Duration{3, 1, 4, 1, 5, 9, 2, 6}}
	hs := make([]holder, 512)
	for i := range hs {
		hs[i].m = m
		k.ScheduleWake(Time(i%13), &hs[i])
	}
	m.left = 1 << 12
	k.Run() // warm: the slab reaches its high-water mark
	if a := testing.AllocsPerRun(10, func() {
		for i := range hs {
			k.ScheduleWake(k.Now().Add(Duration(i%13)), &hs[i])
		}
		m.left = 1 << 12
		k.Run()
	}); a != 0 {
		t.Errorf("warm kernel: %v allocations per run of 4096 holds, want 0", a)
	}
}

// TestKernelDispatchMatchesSortedReference is the kernel-level ordering
// property test. Random streams mix Schedule and ScheduleWake, events
// fired with continuations (AddWaiter) and blocked parties (AddBlocked),
// and processes whose Advance takes the fast path or parks. The test
// mirrors every push the kernel makes into a sorted reference — in the
// order the kernel's contract says it makes them: a Fire's blocked
// parties after every push its continuations made — and checks each
// dispatch against the reference's head.
func TestKernelDispatchMatchesSortedReference(t *testing.T) {
	t.Parallel()
	for trial := 0; trial < 60; trial++ {
		s := &kernelStream{t: t, rng: rand.New(rand.NewSource(int64(trial))), k: NewKernel(), budget: 400, trial: trial}
		s.schedule(0)
		s.schedule(0)
		s.k.Run()
		if len(s.ref) != 0 || s.k.PendingEvents() != 0 {
			t.Fatalf("trial %d: %d reference events and %d kernel events left", trial, len(s.ref), s.k.PendingEvents())
		}
		if s.dispatched < 400 {
			t.Fatalf("trial %d: only %d dispatches", trial, s.dispatched)
		}
	}
}

// kernelStream is one random stream of kernel-level operations and its
// sorted reference of pending events.
type kernelStream struct {
	t          *testing.T
	rng        *rand.Rand
	k          *Kernel
	ref        sortedQueue
	budget     int // actions left to generate
	dispatched int
	ids        int
	trial      int
}

// probe is a dispatched test event: it checks itself against the
// reference's head, then acts.
type probe struct {
	s  *kernelStream
	id int
}

func (p *probe) Wake() {
	p.s.expect(p)
	p.s.act()
}

// cont is a continuation: it runs inline inside Fire and may schedule.
type cont struct{ s *kernelStream }

func (c *cont) Wake() {
	if c.s.rng.Intn(2) == 0 {
		c.s.schedule(c.s.delay())
	}
}

// expect pops the reference's head and checks that the kernel
// dispatched w, now, with as many events still pending.
func (s *kernelStream) expect(w Waiter) {
	s.t.Helper()
	s.dispatched++
	if len(s.ref) == 0 {
		s.t.Fatalf("trial %d: dispatch %d of %v at %v, reference empty", s.trial, s.dispatched, w, s.k.Now())
	}
	re := s.ref.pop()
	if re.w != w || re.at != s.k.Now() {
		s.t.Fatalf("trial %d: dispatch %d is %v at %v, reference %v at %v", s.trial, s.dispatched, w, s.k.Now(), re.w, re.at)
	}
	if n := s.k.PendingEvents(); n != len(s.ref) {
		s.t.Fatalf("trial %d: %d events pending, reference %d", s.trial, n, len(s.ref))
	}
}

// delay draws a horizon: often the current instant, sometimes far off.
func (s *kernelStream) delay() Duration {
	switch s.rng.Intn(6) {
	case 0, 1:
		return 0
	case 2:
		return Duration(s.rng.Intn(8))
	case 3:
		return Duration(s.rng.Intn(1 << 10))
	case 4:
		return Duration(s.rng.Intn(1 << 20))
	default:
		return Duration(1<<30) + Duration(s.rng.Intn(1<<30))
	}
}

// schedule queues a new probe d from now, through ScheduleWake or
// Schedule.
func (s *kernelStream) schedule(d Duration) {
	s.ids++
	p := &probe{s, s.ids}
	at := s.k.Now().Add(d)
	if s.rng.Intn(2) == 0 {
		s.k.ScheduleWake(at, p)
		s.ref.push(at, p)
		return
	}
	// The callback is dispatched as a funcWaiter, and the probe inside
	// checks itself against the reference.
	s.k.Schedule(at, p.Wake)
	s.ref.push(at, p)
}

// act runs one random operation from kernel context.
func (s *kernelStream) act() {
	if s.budget <= 0 {
		return
	}
	s.budget--
	switch r := s.rng.Intn(10); {
	case r < 4:
		for n := 1 + s.rng.Intn(2); n > 0; n-- {
			s.schedule(s.delay())
		}
	case r < 7:
		s.fireLater()
	default:
		s.spawn()
	}
}

// fireLater builds an event with continuations and blocked parties and
// schedules its firing; the firing itself is a probe-like event.
func (s *kernelStream) fireLater() {
	ev := NewEvent(s.k)
	for n := s.rng.Intn(3); n > 0; n-- {
		ev.AddWaiter(&cont{s})
	}
	var blocked []*probe
	for n := s.rng.Intn(4); n > 0; n-- {
		s.ids++
		p := &probe{s, s.ids}
		ev.AddBlocked(p)
		blocked = append(blocked, p)
	}
	f := &firer{s: s, ev: ev, blocked: blocked}
	at := s.k.Now().Add(s.delay())
	s.k.ScheduleWake(at, f)
	s.ref.push(at, f)
}

// firer fires its event when dispatched; the blocked parties are queued
// after every push the continuations made.
type firer struct {
	s       *kernelStream
	ev      *Event
	blocked []*probe
}

func (f *firer) Wake() {
	s := f.s
	s.expect(f)
	f.ev.Fire()
	for _, p := range f.blocked {
		s.ref.push(s.k.Now(), p)
	}
	s.act()
}

// spawn starts a process that advances a few times. Whether an Advance
// parks is read from the reference: it takes the fast path exactly when
// nothing is due at or before its resume instant, and then no event may
// be dispatched while it advances.
func (s *kernelStream) spawn() {
	at := s.k.Now().Add(s.delay())
	steps := 1 + s.rng.Intn(5)
	me := s.k.Spawn("p", at, func(p *Proc) {
		s.expect((*procStep)(p))
		for i := 0; i < steps; i++ {
			d := Duration(s.rng.Intn(4))
			if s.rng.Intn(3) == 0 {
				d = s.delay()
			}
			resume := p.Now().Add(d)
			fast := d == 0 || len(s.ref) == 0 || resume < s.ref[0].at
			if !fast {
				s.ref.push(resume, (*procStep)(p))
			}
			before := s.dispatched
			p.Advance(d)
			if fast && s.dispatched != before {
				s.t.Fatalf("trial %d: a fast-path Advance let %d events run", s.trial, s.dispatched-before)
			}
			if p.Now() != resume {
				s.t.Fatalf("trial %d: Advance(%v) resumed at %v, want %v", s.trial, d, p.Now(), resume)
			}
			if !fast {
				s.expect((*procStep)(p))
			}
			s.act()
		}
	})
	s.ref.push(at, (*procStep)(me))
}
