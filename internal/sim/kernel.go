package sim

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// Waiter is a non-blocking continuation. Wake runs in kernel context at
// the instant its trigger occurs — an Event firing (Event.AddWaiter) or
// a timer expiring (Kernel.ScheduleWake/AfterWake). It must not block,
// but may schedule further events, fire Events, and resume parked
// processes. Implementing Wake on a record that already exists (a disk
// request, a cache buffer) makes registering the continuation free of
// allocation, which is why the simulator's hot completion paths are
// Waiters rather than closures.
type Waiter interface {
	Wake()
}

// Kernel is a discrete-event simulation kernel. Create one with NewKernel,
// spawn processes with Spawn, then call Run. The zero value is not usable.
//
// The kernel is strictly sequential: although each process runs on its own
// goroutine, control is handed off synchronously so that exactly one
// goroutine (a process or the kernel loop) is ever runnable. All state
// reachable from process code may therefore be used without locks.
//
// Two styles of scheduling coexist. The blocking Proc API (Advance,
// Event.Wait, WaitQueue.Sleep) reads naturally but costs two goroutine
// context switches per block/resume pair. The continuation API (Waiter,
// Event.AddWaiter, ScheduleWake) stays in kernel context and costs a
// plain function call, so the simulator's inner loops — I/O completion,
// cache wakeups, prefetch chaining — use it exclusively; only top-level
// process logic blocks.
type Kernel struct {
	now     Time
	heap    timerWheel
	seq     uint64
	procs   []*Proc
	running bool
	active  int  // live (not yet finished) processes
	limit   Time // RunUntil deadline; bounds the Advance fast path

	obs obs.Sink // nil = no observability (the common case)
}

// SetObserver installs an observability sink counting the kernel's
// dispatches (events, continuation wakes, process steps, spawns). A
// nil sink — the default — costs one branch per dispatch.
func (k *Kernel) SetObserver(s obs.Sink) { k.obs = s }

// NewKernel returns a kernel with the clock at time zero and no pending
// events.
func NewKernel() *Kernel {
	return &Kernel{limit: MaxTime}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Schedule arranges for fn to be called at instant at (which must not be
// in the past). Callbacks run in kernel context: they must not block, but
// may schedule further events, fire Events, and wake processes.
func (k *Kernel) Schedule(at Time, fn func()) {
	k.checkFuture(at)
	k.seq++
	k.heap.push(event{at: at, seq: k.seq, kind: evFunc, fn: fn})
}

// After arranges for fn to be called d from now.
func (k *Kernel) After(d Duration, fn func()) {
	k.Schedule(k.now.Add(k.checkDelay(d)), fn)
}

// ScheduleWake arranges for w.Wake() to be called at instant at (which
// must not be in the past). Unlike Schedule, the waiter travels in the
// typed event record itself, so no closure is allocated — this is the
// timer used by the hot completion paths.
func (k *Kernel) ScheduleWake(at Time, w Waiter) {
	k.checkFuture(at)
	k.seq++
	k.heap.push(event{at: at, seq: k.seq, kind: evWake, w: w})
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

// scheduleStep queues a resumption of p at the current instant, after
// every event already due now. This is how Event.Fire and WaitQueue
// wakeups release blocked processes without allocating.
func (k *Kernel) scheduleStep(p *Proc) {
	k.seq++
	k.heap.push(event{at: k.now, seq: k.seq, kind: evStep, proc: p})
}

// Proc is a simulated process: a goroutine whose execution is interleaved
// deterministically with all other processes by the kernel. All Proc
// methods must be called from the process's own goroutine.
type Proc struct {
	k       *Kernel
	name    string
	resume  chan struct{}
	yield   chan struct{}
	done    bool
	waiting string // condition blocking the process; "" while runnable
}

// Name returns the name given to Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process that will begin executing fn at time `at`.
// Spawn may be called before Run, or from process/callback context during
// the run.
func (k *Kernel) Spawn(name string, at Time, fn func(p *Proc)) *Proc {
	k.checkFuture(at)
	p := &Proc{
		k:      k,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	k.procs = append(k.procs, p)
	k.active++
	if k.obs != nil {
		k.obs.Add(obs.CtrKernelSpawns, 1)
	}
	go func() {
		<-p.resume
		fn(p)
		p.done = true
		k.active--
		p.yield <- struct{}{}
	}()
	k.seq++
	k.heap.push(event{at: at, seq: k.seq, kind: evStep, proc: p})
	return p
}

// step transfers control to p until it blocks again. Kernel context only.
func (k *Kernel) step(p *Proc) {
	if p.done {
		panic("sim: waking a finished process " + p.name)
	}
	p.resume <- struct{}{}
	<-p.yield
}

// Resume transfers control to a process parked with Park (or any
// blocking wait), running it until it next blocks or finishes. It must
// be called in kernel context at the instant the process should
// continue. Ordinary waiters are resumed by Event.Fire in FIFO order;
// Resume is for continuation code that knows its process must run right
// now — e.g. a prefetch scheduler resuming its processor the moment the
// awaited event has fired and the in-flight action has completed.
func (k *Kernel) Resume(p *Proc) { k.step(p) }

// park returns control to the kernel until something re-schedules this
// process. reason labels the process in deadlock diagnostics. Process
// context only.
func (p *Proc) park(reason string) {
	p.waiting = reason
	p.yield <- struct{}{}
	<-p.resume
	p.waiting = ""
}

// Park blocks the process until kernel-context code resumes it — via
// Kernel.Resume, or by handing it to an event with Event.Enqueue. The
// reason labels the process in deadlock diagnostics. Callers must
// guarantee that a wakeup is, or will be, arranged: parking with nothing
// pointing back at the process deadlocks the simulation. Process context
// only.
func (p *Proc) Park(reason string) { p.park(reason) }

// Advance blocks the process for d of virtual time.
func (p *Proc) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %v", d))
	}
	if d == 0 {
		return
	}
	k := p.k
	at := k.now.Add(d)
	// Fast path: if no other event is due strictly before the resume
	// instant, a round trip through the heap would accomplish nothing
	// but two goroutine context switches — the resume event would be
	// popped immediately after being pushed. Advancing the clock in
	// place is observationally identical. (Bounded by k.limit so that
	// RunUntil still stops at its deadline; an event already queued at
	// the same instant has a smaller seq and must run first, hence the
	// strict comparison.)
	if at <= k.limit && (k.heap.len() == 0 || at < k.heap.peekTime()) {
		k.now = at
		return
	}
	k.seq++
	k.heap.push(event{at: at, seq: k.seq, kind: evStep, proc: p})
	p.park("the clock")
}

// Yield reschedules the process at the current instant, letting every
// other event due now run first.
func (p *Proc) Yield() {
	p.k.scheduleStep(p)
	p.park("its turn")
}

// dispatch executes one popped event record.
func (k *Kernel) dispatch(e *event) {
	if k.obs != nil {
		k.obs.Add(obs.CtrKernelEvents, 1)
		switch e.kind {
		case evStep:
			k.obs.Add(obs.CtrKernelSteps, 1)
		case evWake:
			k.obs.Add(obs.CtrKernelWakes, 1)
		}
	}
	switch e.kind {
	case evStep:
		k.step(e.proc)
	case evWake:
		e.w.Wake()
	default:
		e.fn()
	}
}

// Run executes events until the heap is exhausted. It panics on deadlock:
// live processes remaining with no pending events.
func (k *Kernel) Run() {
	if k.running {
		panic("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	for k.heap.len() > 0 {
		e := k.heap.pop()
		k.now = e.at
		k.dispatch(&e)
	}
	if k.active > 0 {
		panic(k.deadlockError())
	}
}

// RunUntil executes events with times <= deadline and then stops,
// leaving the clock at the last executed event (or deadline if nothing
// ran past it). Remaining events stay queued; Run or RunUntil may be
// called again. It reports whether any events remain.
func (k *Kernel) RunUntil(deadline Time) bool {
	if k.running {
		panic("sim: RunUntil called reentrantly")
	}
	k.running = true
	k.limit = deadline
	defer func() {
		k.running = false
		k.limit = MaxTime
	}()
	for k.heap.len() > 0 && k.heap.peekTime() <= deadline {
		e := k.heap.pop()
		k.now = e.at
		k.dispatch(&e)
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.heap.len() > 0
}

// PendingEvents returns how many events are currently queued. The
// invariant auditor uses it to decide whether to re-arm its periodic
// sweep: once nothing is pending, rescheduling would only keep the run
// alive artificially (and mask the deadlock detector).
func (k *Kernel) PendingEvents() int { return k.heap.len() }

// Audit checks the kernel's internal invariants — the clock never sits
// past the next due event, and the live-process count agrees with the
// spawned processes that have not finished — returning a descriptive
// error on the first violation. It never mutates state.
func (k *Kernel) Audit() error {
	live := 0
	for _, p := range k.procs {
		if !p.done {
			live++
		}
	}
	if live != k.active {
		return fmt.Errorf("kernel: active count %d but %d live process(es)", k.active, live)
	}
	if k.heap.len() > 0 && k.heap.peekTime() < k.now {
		return fmt.Errorf("kernel: next event due %v is before now %v", k.heap.peekTime(), k.now)
	}
	return nil
}

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
