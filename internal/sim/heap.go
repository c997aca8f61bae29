package sim

import "math/bits"

// event is a scheduled occurrence: at instant at, call w.Wake(). Every
// kind of event is a Waiter — Schedule callbacks travel as funcWaiter,
// process resumptions as *procStep, continuation timers as the caller's
// own record — so one 32-byte record and one dispatch path serve them
// all. Records live by value in the queue's slab, linked by index.
type event struct {
	at   Time
	w    Waiter
	next int32 // slab index of the next record in its bucket; 1-based on the free list
}

// bucket is one FIFO of the radix heap; its fields mean something only
// while its bit is set in the heap's occupancy mask.
type bucket struct {
	head, tail int32 // slab indices of the first and last records
	min        Time  // the earliest time among them
}

// radixHeap is the kernel's event queue: a radix heap keyed on event
// time, which relies on the kernel's rule that nothing is queued before
// the last event popped (checkFuture). Bucket 0 holds the events due at
// last, the time of that pop; bucket i > 0 holds those whose time first
// differs from last at bit i−1. Each bucket is a FIFO in push order, so
// events due at one instant pop in the order they were scheduled, which
// keeps the kernel deterministic. The buckets are lists threaded through
// one slab whose freed records are reused. The zero value is empty.
type radixHeap struct {
	slots   []event
	free    int32 // 1 + the slab index of the first free record; 0 when none
	n       int
	last    Time
	mask    uint64 // bit i is set while bucket i holds a record
	buckets [64]bucket
}

// heapKeep is the largest slab the queue keeps once it drains. A
// cluster-scale run schedules one wake per node at t=0; without the
// release, a million-node run would retain that burst's high-water mark
// for its whole lifetime although steady state needs a fraction of it.
const heapKeep = 4096

// push queues w to wake at instant at, behind every event already
// queued for that instant. at must not precede the last pop.
func (h *radixHeap) push(at Time, w Waiter) {
	s := h.free - 1
	if s >= 0 {
		h.free = h.slots[s].next
	} else {
		s = int32(len(h.slots))
		h.slots = append(h.slots, event{})
	}
	h.slots[s].at, h.slots[s].w = at, w
	h.link(bits.Len64(uint64(at^h.last)), s, at)
	h.n++
}

// link appends record s, due at at, to bucket i.
func (h *radixHeap) link(i int, s int32, at Time) {
	b := &h.buckets[i]
	if h.mask&(1<<i) == 0 {
		h.mask |= 1 << i
		*b = bucket{head: s, tail: s, min: at}
		return
	}
	h.slots[b.tail].next = s
	b.tail = s
	if at < b.min {
		b.min = at
	}
}

// pop removes the earliest event and returns its time and waiter. It
// must not be called on an empty queue.
func (h *radixHeap) pop() (Time, Waiter) {
	if h.mask&1 == 0 {
		h.refill()
	}
	b := &h.buckets[0]
	s := b.head
	e := &h.slots[s]
	w := e.w
	if s == b.tail {
		h.mask &^= 1
	} else {
		b.head = e.next
	}
	e.w, e.next = nil, h.free // release the waiter reference
	h.free = s + 1
	h.n--
	if h.n == 0 && cap(h.slots) > heapKeep {
		h.slots, h.free = nil, 0
	}
	return h.last, w
}

// refill makes the lowest non-empty bucket's minimum the new last and
// relinks that bucket's records, in list order, into the empty buckets
// below it, so each bucket stays in push order and no record is copied.
// Higher buckets keep their records: the new last agrees with the old
// one on every bit above the refilled bucket's.
func (h *radixHeap) refill() {
	i := bits.TrailingZeros64(h.mask)
	b := h.buckets[i]
	h.mask &^= 1 << i
	h.last = b.min
	for s := b.head; ; {
		e := &h.slots[s]
		next := e.next
		h.link(bits.Len64(uint64(e.at^h.last)), s, e.at)
		if s == b.tail {
			return
		}
		s = next
	}
}

// peekTime reports the time of the earliest event, the minimum of the
// lowest non-empty bucket, without moving any record. It must not be
// called on an empty queue.
func (h *radixHeap) peekTime() Time {
	return h.buckets[bits.TrailingZeros64(h.mask)].min
}
