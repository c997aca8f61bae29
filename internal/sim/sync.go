package sim

// WaitQueue is a reusable FIFO of blocked parties. Unlike Event it is
// multi-shot: parties join with Sleep (a process) or AddWaiter (a
// state machine) and WakeAll releases everyone queued so far, in
// arrival order; it is the building block for buffer-availability
// waits and similar conditions. A process is queued as its resumption
// step, as Event.Wait queues it, so processes and waiters share one
// FIFO. The backing array is retained across wakeups, so a long-lived
// queue stops allocating once it has seen its high-water mark of
// sleepers.
type WaitQueue struct {
	k     *Kernel
	label string
	ws    []Waiter
}

// NewWaitQueue returns an empty wait queue on kernel k.
func NewWaitQueue(k *Kernel) *WaitQueue {
	return &WaitQueue{k: k}
}

// SetLabel names the queue in deadlock diagnostics and returns the
// queue, so it chains with NewWaitQueue.
func (q *WaitQueue) SetLabel(label string) *WaitQueue {
	q.label = label
	return q
}

// Label returns the queue's diagnostic label, or "a wait queue" if none
// was set.
func (q *WaitQueue) Label() string {
	if q.label == "" {
		return "a wait queue"
	}
	return q.label
}

// Len reports how many parties are blocked on the queue.
func (q *WaitQueue) Len() int { return len(q.ws) }

// Sleep blocks the process until it is woken, returning the time spent
// blocked.
func (q *WaitQueue) Sleep(p *Proc) Duration {
	start := p.k.now
	q.ws = append(q.ws, (*procStep)(p))
	p.park(q.Label())
	return p.k.now.Sub(start)
}

// AddWaiter blocks a continuation-API waiter until it is woken: the
// counterpart of Sleep for state machines that have no process. The
// waiter's Wake runs from a scheduled event at the wake instant, not
// inline, exactly where a woken process resumes.
func (q *WaitQueue) AddWaiter(w Waiter) {
	q.ws = append(q.ws, w)
}

// WakeAll releases every blocked party, in FIFO order, each from an
// event at the current instant behind the events already due.
func (q *WaitQueue) WakeAll() {
	for i, w := range q.ws {
		q.k.heap.push(q.k.now, w)
		q.ws[i] = nil
	}
	q.ws = q.ws[:0]
}
