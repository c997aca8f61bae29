package memory

import (
	"testing"

	"repro/internal/sim"
)

func TestCostAt(t *testing.T) {
	c := Cost{Base: 4 * sim.Millisecond, PerActive: sim.Millisecond}
	if got := c.At(0); got != 4*sim.Millisecond {
		t.Fatalf("At(0) = %v", got)
	}
	if got := c.At(19); got != 23*sim.Millisecond {
		t.Fatalf("At(19) = %v", got)
	}
	if got := c.At(-3); got != 4*sim.Millisecond {
		t.Fatalf("At(-3) = %v, want base", got)
	}
}

func TestDefaultCalibration(t *testing.T) {
	m := Default()
	// Paper §V-C: prefetch action ~5 ms compute-bound, ~22 ms I/O-bound.
	idle := m.PrefetchAction.At(0).Millis()
	busy := m.PrefetchAction.At(19).Millis()
	if idle < 3 || idle > 7 {
		t.Fatalf("idle prefetch action %vms outside paper's compute-bound ~5ms", idle)
	}
	if busy < 18 || busy > 31 {
		t.Fatalf("busy prefetch action %vms outside paper's I/O-bound ~22ms", busy)
	}
	if m.Hit.At(0) >= m.Miss.At(0) {
		t.Fatal("hit path should be cheaper than miss path")
	}
	if m.PrefetchFail.At(0) >= m.PrefetchAction.At(0) {
		t.Fatal("failed attempt should cost less than a full action")
	}
}

func TestFreeModel(t *testing.T) {
	m := Free()
	if m.Hit.At(10) != 10*sim.Microsecond || m.PrefetchAction.At(10) != 10*sim.Microsecond {
		t.Fatal("Free model should charge a flat 10µs")
	}
	if m.PrefetchFail.At(0) == 0 {
		t.Fatal("Free model must not allow zero-cost failed attempts")
	}
}

func TestTracker(t *testing.T) {
	var tr Tracker
	if got := tr.Enter(); got != 0 {
		t.Fatalf("first Enter saw %d others", got)
	}
	if got := tr.Enter(); got != 1 {
		t.Fatalf("second Enter saw %d others, want 1", got)
	}
	if tr.Active() != 2 {
		t.Fatalf("active = %d, want 2", tr.Active())
	}
	tr.Exit()
	if tr.Active() != 1 {
		t.Fatalf("active after exit = %d", tr.Active())
	}
	if got := tr.Enter(); got != 1 {
		t.Fatalf("Enter after an Exit saw %d others, want 1", got)
	}
	tr.Exit()
	tr.Exit()
	if tr.Active() != 0 {
		t.Fatalf("final active = %d", tr.Active())
	}
}

func TestTrackerExitPanics(t *testing.T) {
	var tr Tracker
	defer func() {
		if recover() == nil {
			t.Fatal("Exit without Enter did not panic")
		}
	}()
	tr.Exit()
}
