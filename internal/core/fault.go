package core

import (
	"errors"

	"repro/internal/disk"
	"repro/internal/obs"
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

// faultClass maps a fill error onto the obs fault classes a SpanBackoff
// carries, via the disk layer's typed errors; 0 for an unclassified
// error.
func faultClass(err error) uint8 {
	switch {
	case errors.Is(err, disk.ErrTransient):
		return obs.FaultTransient
	case errors.Is(err, disk.ErrTimeout):
		return obs.FaultTimeout
	case errors.Is(err, disk.ErrDead):
		return obs.FaultDead
	}
	return 0
}
