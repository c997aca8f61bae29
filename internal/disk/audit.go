package disk

import "fmt"

// Audit checks the disk's queue invariants — a dead disk holds no
// queue, an idle live disk holds no queue (dispatch always pulls),
// the request in service is timestamped consistently with the clock,
// a FIFO queue is ordered by arrival, every queued or in-service
// request still carries the disk's hold (a record without it may
// already be back on the free list), and the queue's count and tail
// match its links — returning a descriptive error on the first
// violation. It never mutates simulation state.
func (d *Disk) Audit() error {
	now := d.k.Now()
	if d.dead && d.first != nil {
		return fmt.Errorf("disk %d: dead with %d queued request(s)", d.id, d.queued)
	}
	if !d.dead && d.current == nil && d.first != nil {
		return fmt.Errorf("disk %d: idle with %d queued request(s)", d.id, d.queued)
	}
	if r := d.current; r != nil {
		if r.holds&holdDisk == 0 {
			return fmt.Errorf("disk %d: in-service request for block %d has lost the disk's hold", d.id, r.Block)
		}
		if r.Started < r.Enqueued {
			return fmt.Errorf("disk %d: in-service request for block %d started %v before its enqueue %v", d.id, r.Block, r.Started, r.Enqueued)
		}
		if r.Started > now || r.Done < now {
			return fmt.Errorf("disk %d: in-service request for block %d spans %v–%v, outside now %v", d.id, r.Block, r.Started, r.Done, now)
		}
	}
	var prev *Request
	n := 0
	for r := d.first; r != nil; r = r.next {
		n++
		if r.holds&holdDisk == 0 {
			return fmt.Errorf("disk %d: queued request for block %d has lost the disk's hold", d.id, r.Block)
		}
		if r.Enqueued > now {
			return fmt.Errorf("disk %d: queued request for block %d enqueued at future time %v", d.id, r.Block, r.Enqueued)
		}
		if d.policy == FIFO && prev != nil && r.Enqueued < prev.Enqueued {
			return fmt.Errorf("disk %d: FIFO queue out of arrival order (block %d at %v after block %d at %v)", d.id, r.Block, r.Enqueued, prev.Block, prev.Enqueued)
		}
		prev = r
	}
	if n != d.queued {
		return fmt.Errorf("disk %d: queue links %d request(s) but counts %d", d.id, n, d.queued)
	}
	if d.last != prev {
		return fmt.Errorf("disk %d: queue tail is not its last request", d.id)
	}
	return nil
}

// Audit checks every disk in the array, then that every record on the
// request free list has both holds dropped, returning the first
// violation.
func (a *Array) Audit() error {
	for _, d := range a.disks {
		if err := d.Audit(); err != nil {
			return err
		}
	}
	for r := a.free; r != nil; r = r.next {
		if r.holds != 0 {
			return fmt.Errorf("disk: free-list request for block %d on disk %d is still held", r.Block, r.Disk)
		}
	}
	return nil
}
