package core

import (
	"errors"

	"repro/internal/disk"
	"repro/internal/obs"
)

// place locates a block on a disk, remapping it onto a surviving disk
// when its home disk has died (disk.Array.Remap). When no disk can die
// this run (no injector kill, no domain kill) — or the home disk is
// alive — this is exactly layout.Locate. Validate guarantees a
// survivor.
func (e *Engine) place(block int) (dsk, phys int) {
	dsk, phys = e.layout.Locate(block)
	if !e.diskDeaths || e.disks.Alive(dsk) {
		return dsk, phys
	}
	e.res.Faults.DegradedReads++
	return e.disks.Remap(dsk, block), phys
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
