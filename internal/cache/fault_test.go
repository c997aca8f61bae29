package cache

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

// failSource is a test ErrorSource whose error can be set per fill. It
// counts the releases of the fills it backs.
type failSource struct {
	err      error
	released int
}

func (f *failSource) FetchError() error { return f.err }
func (f *failSource) Release()          { f.released++ }

var errBoom = errors.New("injected fill failure")

func newFaultCache(k *sim.Kernel) *Cache {
	return New(k, Options{
		DemandFrames:   4,
		PrefetchFrames: 2,
		Nodes:          2,
	})
}

// Regression (pre-fix behaviour): before fills could fail, a transfer
// that never completed left its waiter parked forever and the kernel's
// deadlock detector named it. This pins the panic message the fix
// replaces with a clean error path.
func TestAbandonedWaiterPanicsWithName(t *testing.T) {
	k := sim.NewKernel()
	c := newFaultCache(k)
	ev := sim.NewEvent(k).SetLabel("disk I/O completion")
	k.Spawn("reader-3", 0, func(p *sim.Proc) {
		buf := c.AllocateDemand(0, 7)
		c.BeginFetchFrom(buf, ev, k.Now(), nil)
		ev.Wait(p) // the transfer never completes: abandoned
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		derr, ok := r.(*sim.DeadlockError)
		if !ok {
			t.Fatalf("panic value %T, want *sim.DeadlockError", r)
		}
		msg := derr.Error()
		for _, want := range []string{"deadlock", "reader-3", "disk I/O completion"} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock message %q does not name %q", msg, want)
			}
		}
	}()
	k.Run()
}

// Post-fix: the same abandonment, but the transfer completes with an
// error. The waiter wakes cleanly, observes FillErr, unpins, and the
// frame recycles — no deadlock, no panic.
func TestFailedFillWakesWaiterWithError(t *testing.T) {
	k := sim.NewKernel()
	c := newFaultCache(k)
	src := &failSource{err: errBoom}
	var sawErr error
	k.Spawn("reader-3", 0, func(p *sim.Proc) {
		buf := c.AllocateDemand(0, 7)
		ev := sim.NewEvent(k).SetLabel("disk I/O completion")
		c.BeginFetchFrom(buf, ev, k.Now().Add(30*sim.Millisecond), src)
		k.Schedule(k.Now().Add(30*sim.Millisecond), ev.Fire)
		ev.Wait(p)
		sawErr = buf.FillErr()
		c.Unpin(buf)
		c.CheckInvariants()
	})
	k.Run()
	if !errors.Is(sawErr, errBoom) {
		t.Fatalf("waiter saw %v, want errBoom", sawErr)
	}
	if c.Contains(7) {
		t.Fatal("failed block still in the block index")
	}
	if got := c.Stats().FailedFills; got != 1 {
		t.Fatalf("FailedFills = %d, want 1", got)
	}
	if got := c.AvailableFrames(DemandClass); got != 4 {
		t.Fatalf("frames available = %d, want all 4 back", got)
	}
}

// Several processes piled on one failed fill (the unready-hit path)
// must all wake with the error; the frame recycles only after the last
// Unpin.
func TestFailedFillWakesAllWaiters(t *testing.T) {
	k := sim.NewKernel()
	c := newFaultCache(k)
	src := &failSource{err: errBoom}
	ev := sim.NewEvent(k).SetLabel("disk I/O completion")
	var buf *Buffer
	errs := make([]error, 3)
	k.Spawn("leader", 0, func(p *sim.Proc) {
		buf = c.AllocateDemand(0, 7)
		c.BeginFetchFrom(buf, ev, k.Now().Add(sim.Millisecond), src)
		k.Schedule(k.Now().Add(sim.Millisecond), ev.Fire)
		ev.Wait(p)
		errs[0] = buf.FillErr()
		c.Unpin(buf)
	})
	for i := 1; i <= 2; i++ {
		k.Spawn("follower", 0, func(p *sim.Proc) {
			b := c.Lookup(7)
			if b == nil {
				t.Error("follower missed the in-flight fill")
				return
			}
			if ready := c.Pin(1, b); ready {
				t.Error("fill cannot be ready yet")
			}
			b.IODone.Wait(p)
			errs[i] = b.FillErr()
			if b.State() != Failed {
				t.Errorf("waiter %d sees state %v, want Failed", i, b.State())
			}
			c.Unpin(b)
		})
	}
	k.Run()
	for i, err := range errs {
		if !errors.Is(err, errBoom) {
			t.Fatalf("waiter %d saw %v, want errBoom", i, err)
		}
	}
	if buf.State() != Invalid || buf.Pins() != 0 {
		t.Fatalf("frame not recycled: state=%v pins=%d", buf.State(), buf.Pins())
	}
	c.CheckInvariants()
}

// A failed unconsumed prefetch demotes silently: accounting drops, the
// frame recycles immediately, and only the dedicated counter records
// it — a failed speculation costs nothing but the attempt.
func TestFailedPrefetchDemotesSilently(t *testing.T) {
	k := sim.NewKernel()
	c := newFaultCache(k)
	src := &failSource{err: errBoom}
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf, fail := c.AllocatePrefetch(1, 9)
		if fail != PrefetchOK {
			t.Fatalf("AllocatePrefetch: %v", fail)
		}
		ev := sim.NewEvent(k).SetLabel("disk I/O completion")
		c.BeginFetchFrom(buf, ev, k.Now().Add(sim.Millisecond), src)
		k.Schedule(k.Now().Add(sim.Millisecond), ev.Fire)
		p.Advance(2 * sim.Millisecond)
		if c.Contains(9) {
			t.Error("failed prefetch still in the block index")
		}
		if buf.State() != Invalid || buf.Prefetched() {
			t.Errorf("frame not demoted: state=%v prefetched=%v", buf.State(), buf.Prefetched())
		}
		if c.PrefetchedUnused() != 0 {
			t.Errorf("prefetchedUnused = %d, want 0", c.PrefetchedUnused())
		}
		st := c.Stats()
		if st.FailedFills != 1 || st.FailedPrefetchFills != 1 {
			t.Errorf("stats = %+v, want FailedFills=1 FailedPrefetchFills=1", st)
		}
		if got := c.AvailableFrames(PrefetchClass); got != 2 {
			t.Errorf("prefetch frames available = %d, want 2", got)
		}
		// The slot is genuinely reusable: a fresh prefetch of another
		// block succeeds.
		if _, fail := c.AllocatePrefetch(1, 10); fail != PrefetchOK {
			t.Errorf("follow-up prefetch failed: %v", fail)
		}
		c.CheckInvariants()
	})
	k.Run()
}

// A prefetch that a process demanded while in flight (consuming the
// prefetched flag) fails like a demand fill: the pinned waiter gets
// the error.
func TestFailedConsumedPrefetchBehavesLikeDemand(t *testing.T) {
	k := sim.NewKernel()
	c := newFaultCache(k)
	src := &failSource{err: errBoom}
	var sawErr error
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf, fail := c.AllocatePrefetch(1, 9)
		if fail != PrefetchOK {
			t.Fatalf("AllocatePrefetch: %v", fail)
		}
		ev := sim.NewEvent(k).SetLabel("disk I/O completion")
		c.BeginFetchFrom(buf, ev, k.Now().Add(sim.Millisecond), src)
		k.Schedule(k.Now().Add(sim.Millisecond), ev.Fire)
		b := c.Lookup(9)
		c.Pin(0, b) // unready hit consumes the prefetch
		b.IODone.Wait(p)
		sawErr = b.FillErr()
		c.Unpin(b)
		c.CheckInvariants()
	})
	k.Run()
	if !errors.Is(sawErr, errBoom) {
		t.Fatalf("waiter saw %v, want errBoom", sawErr)
	}
	st := c.Stats()
	if st.FailedFills != 1 || st.FailedPrefetchFills != 0 {
		t.Fatalf("stats = %+v: consumed prefetch must count as a demand-fill failure", st)
	}
}

// A nil-error source behaves exactly like plain BeginFetch.
func TestBeginFetchFromSuccessPath(t *testing.T) {
	k := sim.NewKernel()
	c := newFaultCache(k)
	src := &failSource{} // never errors
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf := c.AllocateDemand(0, 3)
		ev := sim.NewEvent(k)
		c.BeginFetchFrom(buf, ev, k.Now().Add(sim.Millisecond), src)
		k.Schedule(k.Now().Add(sim.Millisecond), ev.Fire)
		ev.Wait(p)
		if buf.State() != Ready || buf.FillErr() != nil {
			t.Errorf("state=%v err=%v, want Ready/nil", buf.State(), buf.FillErr())
		}
		// The requester's pin keeps the source: it may still read the
		// fill's event.
		if src.released != 0 {
			t.Errorf("source released %d time(s) while the frame is pinned", src.released)
		}
		c.Unpin(buf)
		if src.released != 1 {
			t.Errorf("source released %d time(s) after the last unpin, want 1", src.released)
		}
		c.CheckInvariants()
	})
	k.Run()
}

// An unpinned prefetch fill releases its source as it completes, and a
// failed one as its frame recycles.
func TestUnpinnedFillReleasesOnCompletion(t *testing.T) {
	for _, err := range []error{nil, errBoom} {
		k := sim.NewKernel()
		c := newFaultCache(k)
		src := &failSource{err: err}
		buf, res := c.AllocatePrefetch(1, 5)
		if res != PrefetchOK {
			t.Fatalf("prefetch allocation: %v", res)
		}
		ev := sim.NewEvent(k)
		c.BeginFetchFrom(buf, ev, k.Now().Add(sim.Millisecond), src)
		k.Schedule(k.Now().Add(sim.Millisecond), ev.Fire)
		k.Run()
		if src.released != 1 {
			t.Errorf("err=%v: source released %d time(s), want 1", err, src.released)
		}
		c.CheckInvariants()
	}
}

// A fill begun against an already-fired event (a dead disk refusing
// the submission synchronously) fails before BeginFetchFrom returns,
// and a subsequent Wait costs nothing.
func TestFailedFillOnFiredEvent(t *testing.T) {
	k := sim.NewKernel()
	c := newFaultCache(k)
	src := &failSource{err: errBoom}
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf := c.AllocateDemand(0, 3)
		ev := sim.NewEvent(k)
		ev.Fire()
		c.BeginFetchFrom(buf, ev, k.Now(), src)
		if buf.State() != Failed {
			t.Errorf("state=%v, want Failed immediately", buf.State())
		}
		if waited := ev.Wait(p); waited != 0 {
			t.Errorf("waited %v on a fired event", waited)
		}
		if !errors.Is(buf.FillErr(), errBoom) {
			t.Errorf("FillErr = %v, want errBoom", buf.FillErr())
		}
		if src.released != 0 {
			t.Errorf("failed frame released its source while pinned")
		}
		c.Unpin(buf)
		if src.released != 1 {
			t.Errorf("source released %d time(s) after the failed frame recycled, want 1", src.released)
		}
		c.CheckInvariants()
	})
	k.Run()
}
