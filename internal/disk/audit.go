package disk

import "fmt"

// Audit checks the disk's queue invariants — a dead disk holds no
// queue, an idle live disk holds no queue (dispatch always pulls),
// the request in service is timestamped consistently with the clock,
// and a FIFO queue is ordered by arrival — returning a descriptive
// error on the first violation. It never mutates simulation state.
func (d *Disk) Audit() error {
	now := d.k.Now()
	if d.dead && len(d.pending) > 0 {
		return fmt.Errorf("disk %d: dead with %d queued request(s)", d.id, len(d.pending))
	}
	if !d.dead && d.current == nil && len(d.pending) > 0 {
		return fmt.Errorf("disk %d: idle with %d queued request(s)", d.id, len(d.pending))
	}
	if r := d.current; r != nil {
		if r.Started < r.Enqueued {
			return fmt.Errorf("disk %d: in-service request for block %d started %v before its enqueue %v", d.id, r.Block, r.Started, r.Enqueued)
		}
		if r.Started > now || r.Done < now {
			return fmt.Errorf("disk %d: in-service request for block %d spans %v–%v, outside now %v", d.id, r.Block, r.Started, r.Done, now)
		}
	}
	var prev *Request
	for _, r := range d.pending {
		if r.Enqueued > now {
			return fmt.Errorf("disk %d: queued request for block %d enqueued at future time %v", d.id, r.Block, r.Enqueued)
		}
		if d.policy == FIFO && prev != nil && r.Enqueued < prev.Enqueued {
			return fmt.Errorf("disk %d: FIFO queue out of arrival order (block %d at %v after block %d at %v)", d.id, r.Block, r.Enqueued, prev.Block, prev.Enqueued)
		}
		prev = r
	}
	return nil
}

// Audit checks every disk in the array, returning the first violation.
func (a *Array) Audit() error {
	for _, d := range a.disks {
		if err := d.Audit(); err != nil {
			return err
		}
	}
	return nil
}
