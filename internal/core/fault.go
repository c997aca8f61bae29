package core

import (
	"errors"

	"repro/internal/disk"
)

// place locates a block on a disk, remapping it onto a surviving disk
// when its home disk has died. The remap models a mirror/parity
// reconstruction read: the same physical position is read from a
// deterministic survivor, chosen by a block-dependent stride so a dead
// disk's load spreads over all survivors instead of piling onto one
// neighbour. When no disk can die this run (no injector kill, no
// domain kill) — or the home disk is alive — this is exactly
// layout.Locate. The stride walk handles any number of dead disks
// (a domain kill takes a whole rack); Validate guarantees a survivor.
func (e *Engine) place(block int) (dsk, phys int) {
	dsk, phys = e.layout.Locate(block)
	if !e.diskDeaths || e.disks.Alive(dsk) {
		return dsk, phys
	}
	e.res.Faults.DegradedReads++
	n := e.cfg.Disks
	step := 1 + block%(n-1)
	for i := 0; i < n; i++ {
		d2 := (dsk + step + i) % n
		if d2 != dsk && e.disks.Alive(d2) {
			return d2, phys
		}
	}
	return dsk, phys
}

// classifyFault maps a fill error onto the trace's fault outcomes via
// the disk layer's typed errors.
func classifyFault(err error) FaultOutcome {
	switch {
	case err == nil:
		return OutcomeNone
	case errors.Is(err, disk.ErrTransient):
		return OutcomeTransient
	case errors.Is(err, disk.ErrTimeout):
		return OutcomeTimeout
	case errors.Is(err, disk.ErrDead):
		return OutcomeDead
	}
	return OutcomeNone
}
