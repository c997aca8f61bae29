package sim

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// Waiter is a non-blocking continuation. Wake runs in kernel context
// when its trigger occurs — an Event firing (inline with AddWaiter,
// queued with AddBlocked) or a timer expiring (Kernel.ScheduleWake/
// AfterWake). It must not block, but may schedule further events and
// fire Events. Implementing Wake on a record that already exists (a disk
// request, a cache buffer) makes registering the continuation free of
// allocation, which is why the simulator's hot completion paths are
// Waiters rather than closures.
type Waiter interface {
	Wake()
}

// Kernel is a discrete-event simulation kernel. Create one with NewKernel,
// schedule events or spawn processes, then call Run. The zero value is
// not usable.
//
// The kernel is strictly sequential: although each process runs as its
// own coroutine, control is handed off synchronously so that exactly one
// of them (a process or the kernel loop) is ever running. All state
// reachable from process code may therefore be used without locks.
//
// Two styles of scheduling coexist. The blocking Proc API (Advance,
// Event.Wait, WaitQueue.Sleep) reads naturally but costs two coroutine
// switches per block/resume pair; the file system API (internal/fs) and
// its clients use it. The continuation API (Waiter, Event.AddWaiter,
// Event.AddBlocked, WaitQueue.AddWaiter, ScheduleWake) stays in kernel
// context and costs a plain function call, so the testbed — I/O
// completion, cache wakeups, prefetch chaining, and the processors
// themselves (core's cnodes) — uses it exclusively.
type Kernel struct {
	now     Time
	heap    radixHeap
	procs   []*Proc
	running bool
	active  int // live (not yet finished) processes

	// spare holds the cleared overflow lists of fired events, for the
	// next event that gathers a second party, and block the unused part
	// of the block new ones are carved from. runEnd0 and runEnd hold the
	// waiters Run wakes once its queue is empty, the first inline, so
	// that a kernel with one registrant (a core run's disk array)
	// registers it without allocating. Both recycle memory for one run:
	// Run drops the spares as it returns, and the run-end waiters drop
	// their layers' pools.
	spare   []*waiterList
	block   []waiterList
	runEnd0 Waiter
	runEnd  []Waiter

	obs obs.Sink // nil = no observability (the common case)
}

// SetObserver installs the run's one observability sink. The kernel
// counts its dispatches into it, and the layers built on it read it
// through Observer at each emission, so it may be installed before or
// after them. A sink with a SetClock(func() int64) method gets the
// kernel clock. A nil sink costs one branch per emission site.
func (k *Kernel) SetObserver(s obs.Sink) {
	k.obs = s
	if ck, ok := s.(interface{ SetClock(func() int64) }); ok {
		ck.SetClock(func() int64 { return int64(k.now) })
	}
}

// Observer returns the kernel's sink, nil when none is installed.
func (k *Kernel) Observer() obs.Sink { return k.obs }

// NewKernel returns a kernel with the clock at time zero and no pending
// events.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Schedule arranges for fn to be called at instant at (which must not be
// in the past). Callbacks run in kernel context: they must not block, but
// may schedule further events, fire Events, and wake processes.
func (k *Kernel) Schedule(at Time, fn func()) {
	k.checkFuture(at)
	k.heap.push(at, funcWaiter(fn))
}

// After arranges for fn to be called d from now.
func (k *Kernel) After(d Duration, fn func()) {
	k.Schedule(k.now.Add(k.checkDelay(d)), fn)
}

// ScheduleWake arranges for w.Wake() to be called at instant at (which
// must not be in the past). Unlike Schedule, the waiter travels in the
// event record itself, so no closure is allocated — this is the timer
// used by the hot completion paths.
func (k *Kernel) ScheduleWake(at Time, w Waiter) {
	k.checkFuture(at)
	k.heap.push(at, w)
}

// AfterWake arranges for w.Wake() to be called d from now.
func (k *Kernel) AfterWake(d Duration, w Waiter) {
	k.ScheduleWake(k.now.Add(k.checkDelay(d)), w)
}

func (k *Kernel) checkFuture(at Time) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", at, k.now))
	}
}

func (k *Kernel) checkDelay(d Duration) Duration {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return d
}

// OnRunEnd registers w to be woken each time Run empties its event
// queue, in registration order. It is how a layer that recycles records
// through a pool lets the pool live for one run: the pool survives every
// drain inside the run and is dropped at its end, so a structure kept
// after its run retains none of it. w.Wake must not schedule events.
func (k *Kernel) OnRunEnd(w Waiter) {
	if k.runEnd0 == nil {
		k.runEnd0 = w
		return
	}
	k.runEnd = append(k.runEnd, w)
}

// takeSpare returns an overflow list for an event's second party w,
// holding w. With no spare it carves the list from a block of 16, so a
// burst of events gathering a second party before any has fired (a
// cluster run's t=0) costs one allocation per 16 events.
func (k *Kernel) takeSpare(w Waiter) *waiterList {
	var l *waiterList
	if n := len(k.spare); n > 0 {
		l = k.spare[n-1]
		k.spare[n-1] = nil
		k.spare = k.spare[:n-1]
	} else {
		if len(k.block) == 0 {
			k.block = make([]waiterList, 16)
		}
		l = &k.block[0]
		k.block = k.block[1:]
	}
	l.w0 = w
	return l
}

// giveSpare takes back a fired event's overflow list. It is cleared,
// so the spare holds no waiter alive.
func (k *Kernel) giveSpare(l *waiterList) {
	l.w0 = nil
	clear(l.more)
	l.more = l.more[:0]
	k.spare = append(k.spare, l)
}

// dispatch wakes one popped event's waiter. The observer counts process
// steps and continuation wakes apart; Schedule callbacks are neither.
func (k *Kernel) dispatch(w Waiter) {
	if k.obs != nil {
		k.obs.Add(obs.CtrKernelEvents, 1)
		switch w.(type) {
		case *procStep:
			k.obs.Add(obs.CtrKernelSteps, 1)
		case funcWaiter:
		default:
			k.obs.Add(obs.CtrKernelWakes, 1)
		}
	}
	w.Wake()
}

// Run executes events until the queue is exhausted, then wakes the
// run-end waiters (OnRunEnd) and drops its spare waiter lists. It
// panics on deadlock: live processes remaining with no pending events.
// A panic in a process body propagates out of Run with the same value.
//
// Every Run call on one kernel must run with the same OS-thread lock
// state (runtime.LockOSThread), since process coroutines are created
// inside Run and must be resumed as they were created. A mismatch is a
// fatal runtime error, not a panic.
func (k *Kernel) Run() {
	if k.running {
		panic("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	for k.heap.n > 0 {
		at, w := k.heap.pop()
		k.now = at
		k.dispatch(w)
	}
	if k.runEnd0 != nil {
		k.runEnd0.Wake()
	}
	for _, w := range k.runEnd {
		w.Wake()
	}
	k.spare, k.block = nil, nil
	if k.active > 0 {
		panic(k.deadlockError())
	}
}

// PendingEvents returns how many events are currently queued. The
// invariant auditor uses it to decide whether to re-arm its periodic
// sweep: once nothing is pending, rescheduling would only keep the run
// alive artificially (and mask the deadlock detector).
func (k *Kernel) PendingEvents() int { return k.heap.n }

// BlockedProc describes one live blocked process at deadlock time.
type BlockedProc struct {
	Name    string // the process's diagnostic name
	Waiting string // the condition it blocked on ("" if unlabelled)
}

// DeadlockError is the panic value Run raises when live processes
// remain blocked with no pending events. It is a typed error rather
// than a bare string so recover-side machinery — the telemetry flight
// recorder, test harnesses — can recognize a deadlock structurally and
// reach the blocked-process details; its Error text is the same
// diagnostic the kernel has always printed.
type DeadlockError struct {
	// Active is the total number of live blocked processes.
	Active int
	// Blocked names up to 8 of them, in process-creation order, with
	// the condition each waits on.
	Blocked []BlockedProc
}

// Error names every recorded blocked process and the condition it
// waits on, so a stuck simulation points directly at the culprit.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock — %d process(es) still blocked with no pending events:", e.Active)
	for i, p := range e.Blocked {
		sep := ","
		if i == 0 {
			sep = ""
		}
		reason := p.Waiting
		if reason == "" {
			reason = "an unknown condition"
		}
		fmt.Fprintf(&b, "%s %s (waiting on %s)", sep, p.Name, reason)
	}
	if more := e.Active - len(e.Blocked); more > 0 {
		fmt.Fprintf(&b, ", … and %d more", more)
	}
	return b.String()
}

// deadlockError collects the live blocked processes into the typed
// panic value.
func (k *Kernel) deadlockError() *DeadlockError {
	err := &DeadlockError{Active: k.active}
	const maxNamed = 8
	for _, p := range k.procs {
		if p.done {
			continue
		}
		if len(err.Blocked) == maxNamed {
			break
		}
		err.Blocked = append(err.Blocked, BlockedProc{Name: p.name, Waiting: p.waiting})
	}
	return err
}
