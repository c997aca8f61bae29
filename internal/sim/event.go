package sim

// Event is a one-shot occurrence in virtual time that processes can wait
// on: the completion of an I/O, the release of a barrier, and so on.
// Once fired it stays fired, and remembers when it fired — which is what
// lets callers compute quantities like the paper's hit-wait time and
// prefetch overrun. The zero value is an unfired event, but an Event
// must be associated with a kernel before use; use NewEvent, or Init for
// events embedded in larger records.
//
// An event can release two kinds of parties when it fires:
// continuations (AddWaiter/OnFire), which run synchronously in kernel
// context at the instant of firing, and blocked parties (Wait/
// AddBlocked), which are queued to wake at that instant, after every
// continuation has run and every event already due. A blocked process
// is queued as its resumption step, so a state machine that parks with
// AddBlocked wakes exactly where a process would. Both sides keep a
// single inline slot plus a pointer to an overflow list, so the
// overwhelmingly common one-party case costs no allocation. Fire hands
// the overflow lists back to the kernel, which gives them to the next
// events that gather a second party, so within a run an event needs a
// new list only when no fired event has left one behind, and the
// kernel carves those 16 to an allocation.
//
// The record is 80 bytes, and every disk request embeds one: whether
// the event has fired and when are one word, and the overflow lists
// are pointers rather than slice headers.
type Event struct {
	k     *Kernel
	label string
	// fired is the complement of the firing instant: negative once
	// fired, and zero, which no instant complements to, before.
	fired   Time
	c0      Waiter      // first continuation
	conts   *waiterList // further continuations, in registration order
	b0      Waiter      // first blocked party
	blocked *waiterList // further blocked parties, in arrival order
}

// waiterList is an event's overflow list of continuations or blocked
// parties: the second party in its inline slot, any later ones in
// more, in order. The kernel carves lists and recycles them (takeSpare,
// giveSpare), and a recycled list keeps more's backing array.
type waiterList struct {
	w0   Waiter
	more []Waiter
}

// NewEvent returns an unfired event on kernel k.
func NewEvent(k *Kernel) *Event {
	return &Event{k: k}
}

// Init readies a zero-value Event — typically one embedded in a larger
// record, such as a disk request, so that the event costs no separate
// allocation — for use on kernel k. The label names the event in
// deadlock diagnostics.
func (e *Event) Init(k *Kernel, label string) {
	e.k = k
	e.label = label
}

// SetLabel names the event in deadlock diagnostics and returns the
// event, so it chains with NewEvent.
func (e *Event) SetLabel(label string) *Event {
	e.label = label
	return e
}

// Label returns the event's diagnostic label, or "an event" if none was
// set.
func (e *Event) Label() string {
	if e.label == "" {
		return "an event"
	}
	return e.label
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired < 0 }

// FiredAt returns the instant the event fired. It panics if the event has
// not fired.
func (e *Event) FiredAt() Time {
	if e.fired >= 0 {
		panic("sim: FiredAt on unfired event")
	}
	return ^e.fired
}

// Fire marks the event as having occurred now, wakes every continuation,
// and queues every blocked party to wake at the current instant.
// Continuations run synchronously, before any blocked party wakes, so
// state transitions they perform (e.g. a cache buffer becoming Ready)
// are visible to every party released. Firing an already-fired event
// panics: events are one-shot by design, and double-firing always
// indicates a bookkeeping bug in the caller.
func (e *Event) Fire() {
	if e.Fired() {
		panic("sim: event fired twice")
	}
	e.fired = ^e.k.now
	if w := e.c0; w != nil {
		e.c0 = nil
		w.Wake()
	}
	if l := e.conts; l != nil {
		e.conts = nil
		l.w0.Wake()
		for _, w := range l.more {
			w.Wake()
		}
		e.k.giveSpare(l)
	}
	if w := e.b0; w != nil {
		e.b0 = nil
		e.k.heap.push(e.k.now, w)
	}
	if l := e.blocked; l != nil {
		e.blocked = nil
		e.k.heap.push(e.k.now, l.w0)
		for _, w := range l.more {
			e.k.heap.push(e.k.now, w)
		}
		e.k.giveSpare(l)
	}
}

// AddWaiter registers w to be woken, in kernel context, at the moment
// the event fires — before any blocked party wakes. If the event has
// already fired, w is woken immediately. Continuations are woken in
// registration order.
func (e *Event) AddWaiter(w Waiter) {
	switch {
	case e.Fired():
		w.Wake()
	case e.c0 == nil:
		e.c0 = w
	case e.conts == nil:
		e.conts = e.k.takeSpare(w)
	default:
		e.conts.more = append(e.conts.more, w)
	}
}

// funcWaiter adapts a plain func to the Waiter interface.
type funcWaiter func()

func (f funcWaiter) Wake() { f() }

// OnFire registers fn to run, in kernel context, at the moment the
// event fires — before any blocked party wakes. If the event has
// already fired, fn runs immediately. It is AddWaiter for callers with
// no natural record to hang a Wake method on; hot paths prefer
// AddWaiter, which avoids allocating a closure.
func (e *Event) OnFire(fn func()) { e.AddWaiter(funcWaiter(fn)) }

// Wait blocks the process until the event fires and returns how long the
// process actually waited (zero if the event had already fired).
func (e *Event) Wait(p *Proc) Duration {
	if e.Fired() {
		return 0
	}
	start := p.k.now
	e.AddBlocked((*procStep)(p))
	p.park(e.Label())
	return p.k.now.Sub(start)
}

// AddBlocked queues w among the event's blocked parties: when the event
// fires, w.Wake runs from an event scheduled at the firing instant, in
// FIFO order with every blocked process and after every continuation.
// It is how a state machine parks exactly where a blocked process
// would. It panics if the event has already fired — the caller should
// have continued directly.
func (e *Event) AddBlocked(w Waiter) {
	switch {
	case e.Fired():
		panic("sim: AddBlocked on fired event (" + e.Label() + ")")
	case e.b0 == nil:
		e.b0 = w
	case e.blocked == nil:
		e.blocked = e.k.takeSpare(w)
	default:
		e.blocked.more = append(e.blocked.more, w)
	}
}

// Waiters reports how many parties are currently blocked on the event.
func (e *Event) Waiters() int {
	n := 0
	if e.b0 != nil {
		n++
	}
	if l := e.blocked; l != nil {
		n += 1 + len(l.more)
	}
	return n
}
