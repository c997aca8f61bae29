package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// TestSpawnLockedRunUnlocked pins that a process's coroutine is created
// at its first step, not in Spawn: spawning on a goroutine locked to
// its OS thread and running the kernel after unlocking must work. A
// coroutine created under the lock would die at its first resume with
// a fatal runtime error, which no recover can catch.
func TestSpawnLockedRunUnlocked(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	finished := 0
	runtime.LockOSThread()
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), 0, func(p *Proc) {
			p.Advance(Duration(i + 1)) // staggered: every Advance queues a step
			ev.Wait(p)
			finished++
		})
	}
	k.Schedule(10, ev.Fire)
	runtime.UnlockOSThread()
	k.Run()
	if finished != 4 {
		t.Fatalf("%d of 4 processes finished", finished)
	}
}

// TestProcPanicPropagatesFromRun: a panic in a process body unwinds out
// of Kernel.Run with the same value, so the caller can recover it.
func TestProcPanicPropagatesFromRun(t *testing.T) {
	boom := errors.New("boom")
	k := NewKernel()
	k.Spawn("bystander", 0, func(p *Proc) { p.Advance(10) })
	k.Spawn("bad", 0, func(p *Proc) {
		p.Advance(5)
		panic(boom)
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if got != boom {
		t.Fatalf("recovered %v, want %v", got, boom)
	}
	if k.Now() != 5 {
		t.Fatalf("clock at the panic = %v, want 5", k.Now())
	}
}

// TestFinishedProcHoldsNoCoroutine: no process has a coroutine before
// its first step, and none keeps one once its body has returned.
func TestFinishedProcHoldsNoCoroutine(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var procs []*Proc
	for i := 0; i < 3; i++ {
		procs = append(procs, k.Spawn(fmt.Sprintf("p%d", i), 0, func(p *Proc) {
			p.Advance(Duration(i + 1))
			ev.Wait(p)
		}))
	}
	k.Schedule(10, ev.Fire)
	for _, p := range procs {
		if p.next != nil {
			t.Fatalf("%s has a coroutine before Run", p.Name())
		}
	}
	k.Run()
	for _, p := range procs {
		if !p.done || p.next != nil || p.yield != nil || p.body != nil {
			t.Fatalf("%s after Run: done=%v next=%v yield=%v body=%v",
				p.Name(), p.done, p.next != nil, p.yield != nil, p.body != nil)
		}
	}
}
