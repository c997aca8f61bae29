package core

import (
	"testing"

	"repro/internal/obs"
)

// kernelCounter reports whether c measures the simulation substrate
// rather than the modelled file system. The two wake orders execute the
// same model with different event traffic — a node woken inline at a
// firing dispatches no event of its own — so their event and wake
// counts legitimately differ.
func kernelCounter(c obs.Counter) bool {
	switch c {
	case obs.CtrKernelEvents, obs.CtrKernelWakes, obs.CtrKernelSteps, obs.CtrKernelSpawns:
		return true
	}
	return false
}

// TestCompactCounterParity is the observability counterpart of
// TestCompactConservation: for every configuration of the matrix, a
// CounterSink must see identical totals for every model counter in
// both wake orders — not just conserved aggregates but the full split
// (ready/unready hits, prefetch issues and consumptions, barrier
// generations, disk requests).
func TestCompactCounterParity(t *testing.T) {
	t.Parallel()
	for name, cfg := range compactConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			run := func(compact bool) obs.Counters {
				c := cfg
				c.CompactNodes = compact
				cs := &obs.CounterSink{}
				c.Obs = cs
				MustRun(c)
				return cs.Snapshot()
			}
			got, want := run(true), run(false)
			for i := range got {
				c := obs.Counter(i)
				if kernelCounter(c) {
					continue
				}
				if got[i] != want[i] {
					t.Errorf("%s: inline order counted %d, blocked order %d",
						c, got[i], want[i])
				}
			}
			// The substrate counters must still be live in both
			// orders — a parity test that passes because nothing was
			// counted proves nothing.
			if got[obs.CtrKernelEvents] == 0 || want[obs.CtrKernelEvents] == 0 {
				t.Error("a run dispatched no kernel events; sink not wired?")
			}
		})
	}
}
