package sim

// event is a scheduled occurrence: at instant at, call w.Wake(). Events
// with equal times fire in the order they were scheduled (seq breaks
// ties), which keeps the kernel fully deterministic. Every kind of event
// is a Waiter: Schedule callbacks travel as funcWaiter, process
// resumptions as *procStep, and continuation timers as the caller's own
// record, so one 32-byte record and one dispatch path serve them all.
// Records live by value inside the heap's slice — a pool that is reused
// in place as events come and go — so pushing and popping moves no
// memory through the garbage collector.
type event struct {
	at  Time
	seq uint64
	w   Waiter
}

// eventHeap is the kernel's event queue: a binary min-heap ordered by
// (at, seq). It is hand-rolled rather than using container/heap to
// avoid interface boxing on the hottest path in the simulator.
type eventHeap struct {
	items []event
}

// heapKeep is the largest backing array the heap keeps once it drains.
// A cluster-scale run schedules one wake per node at t=0; without the
// release, a million-node run would retain that burst's high-water mark
// for its whole lifetime although steady state needs a fraction of it.
const heapKeep = 4096

func (h *eventHeap) len() int { return len(h.items) }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = event{} // release the waiter reference
	h.items = h.items[:last]
	if last == 0 {
		if cap(h.items) > heapKeep {
			h.items = nil
		}
		return top
	}
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// peekTime reports the time of the earliest event. It must not be called
// on an empty heap.
func (h *eventHeap) peekTime() Time { return h.items[0].at }
