//go:build go1.23

package sim

import (
	"fmt"
	"iter"

	"repro/internal/obs"
)

// procStep is a Proc queued for resumption. Its Wake steps the process,
// so a resumption is an ordinary event record: the pointer conversion
// allocates nothing, and the observer can still tell steps from
// continuation wakes by type.
type procStep Proc

func (s *procStep) Wake() {
	p := (*Proc)(s)
	p.k.step(p)
}

// Proc is a simulated process: a coroutine whose execution is
// interleaved deterministically with all other processes by the kernel.
// All Proc methods must be called from the process's own body.
//
// The coroutine is the runtime's (iter.Pull): the kernel resumes it
// with next and the process suspends itself with yield, each a direct
// switch between two goroutines that bypasses the scheduler.
type Proc struct {
	k    *Kernel
	name string
	body func(p *Proc) // the function given to Spawn, until the first step

	// next resumes the coroutine; yield suspends it. Both are nil before
	// the first step and after the body returns, so a finished process
	// holds no coroutine.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

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
//
// The process's coroutine is created at its first step, inside Run, so
// it takes the OS-thread lock state of the goroutine that runs the
// kernel, not that of the goroutine calling Spawn. A panic in fn
// unwinds the process and propagates out of Run with the same value,
// so a recover around the run — such as core's flight recorder hook in
// Engine.Run — sees process panics too.
func (k *Kernel) Spawn(name string, at Time, fn func(p *Proc)) *Proc {
	k.checkFuture(at)
	p := &Proc{k: k, name: name, body: fn}
	k.procs = append(k.procs, p)
	k.active++
	if k.obs != nil {
		k.obs.Add(obs.CtrKernelSpawns, 1)
	}
	k.heap.push(at, (*procStep)(p))
	return p
}

// run is the coroutine's body: the process from its first step to its
// return.
func (p *Proc) run(yield func(struct{}) bool) {
	fn := p.body
	p.body, p.yield = nil, yield
	fn(p)
	p.done = true
	p.k.active--
	p.next, p.yield = nil, nil
}

// step transfers control to p until it blocks again. Kernel context only.
func (k *Kernel) step(p *Proc) {
	if p.done {
		panic("sim: waking a finished process " + p.name)
	}
	if p.next == nil {
		// stop is not kept: the kernel never abandons a live process.
		// One still parked when a run ends (a deadlock) keeps its
		// coroutine.
		p.next, _ = iter.Pull(p.run)
	}
	p.next()
}

// park returns control to the kernel until something re-schedules this
// process. reason labels the process in deadlock diagnostics. Process
// context only.
func (p *Proc) park(reason string) {
	p.waiting = reason
	p.yield(struct{}{})
	p.waiting = ""
}

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
	// instant, a round trip through the queue would accomplish nothing
	// but two coroutine switches — the resume event would be popped
	// immediately after being pushed. Advancing the clock in place is
	// observationally identical. (An event already queued at the same
	// instant was pushed first and must run first, hence the strict
	// comparison.)
	if k.heap.n == 0 || at < k.heap.peekTime() {
		k.now = at
		return
	}
	k.heap.push(at, (*procStep)(p))
	p.park("the clock")
}
