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
// single inline slot plus an overflow slice, so the overwhelmingly
// common one-party case costs no allocation. Fire hands the overflow
// slices back to the kernel, which gives them to the next events that
// gather a second party, so within a run an event needs a new slice
// only when no fired event has left one behind, and the kernel carves
// those 16 to an allocation.
type Event struct {
	k       *Kernel
	label   string
	fired   bool
	firedAt Time
	c0      Waiter   // first continuation
	conts   []Waiter // further continuations, in registration order
	b0      Waiter   // first blocked party
	blocked []Waiter // further blocked parties, in arrival order
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
func (e *Event) Fired() bool { return e.fired }

// FiredAt returns the instant the event fired. It panics if the event has
// not fired.
func (e *Event) FiredAt() Time {
	if !e.fired {
		panic("sim: FiredAt on unfired event")
	}
	return e.firedAt
}

// Fire marks the event as having occurred now, wakes every continuation,
// and queues every blocked party to wake at the current instant.
// Continuations run synchronously, before any blocked party wakes, so
// state transitions they perform (e.g. a cache buffer becoming Ready)
// are visible to every party released. Firing an already-fired event
// panics: events are one-shot by design, and double-firing always
// indicates a bookkeeping bug in the caller.
func (e *Event) Fire() {
	if e.fired {
		panic("sim: event fired twice")
	}
	e.fired = true
	e.firedAt = e.k.now
	if w := e.c0; w != nil {
		e.c0 = nil
		w.Wake()
	}
	if e.conts != nil {
		for _, w := range e.conts {
			w.Wake()
		}
		e.k.giveSpare(e.conts)
		e.conts = nil
	}
	if w := e.b0; w != nil {
		e.b0 = nil
		e.k.heap.push(e.k.now, w)
	}
	if e.blocked != nil {
		for _, w := range e.blocked {
			e.k.heap.push(e.k.now, w)
		}
		e.k.giveSpare(e.blocked)
		e.blocked = nil
	}
}

// AddWaiter registers w to be woken, in kernel context, at the moment
// the event fires — before any blocked party wakes. If the event has
// already fired, w is woken immediately. Continuations are woken in
// registration order.
func (e *Event) AddWaiter(w Waiter) {
	if e.fired {
		w.Wake()
		return
	}
	if e.c0 == nil && len(e.conts) == 0 {
		e.c0 = w
		return
	}
	if e.conts == nil {
		e.conts = e.k.takeSpare()
	}
	e.conts = append(e.conts, w)
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
	if e.fired {
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
	if e.fired {
		panic("sim: AddBlocked on fired event (" + e.Label() + ")")
	}
	if e.b0 == nil && len(e.blocked) == 0 {
		e.b0 = w
		return
	}
	if e.blocked == nil {
		e.blocked = e.k.takeSpare()
	}
	e.blocked = append(e.blocked, w)
}

// Waiters reports how many parties are currently blocked on the event.
func (e *Event) Waiters() int {
	n := len(e.blocked)
	if e.b0 != nil {
		n++
	}
	return n
}
