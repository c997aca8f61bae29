// Package barrier implements the synchronization styles of the paper's
// synthetic workload (§IV-B): processes synchronize after a fixed number
// of blocks per process, after a fixed number of blocks in total, after
// each sequential portion, or not at all.
//
// The core primitive is a reusable barrier whose arrival is split in
// two: a process registers its arrival and receives the release Event,
// then decides how to spend the wait — the engine runs prefetch actions
// during exactly this window. Processes that finish their workload can
// Withdraw so that patterns with unequal work per process (e.g., random
// portions) cannot deadlock the rest.
package barrier

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Style is a synchronization style from the paper.
type Style int

// The four synchronization styles.
const (
	None          Style = iota // no synchronization
	EveryNPerProc              // after every N blocks read by each process
	EveryNTotal                // after every N blocks read in total
	PerPortion                 // after each sequential portion
)

// Styles lists all synchronization styles in the paper's order.
var Styles = []Style{EveryNPerProc, EveryNTotal, PerPortion, None}

// String names the style.
func (s Style) String() string {
	switch s {
	case None:
		return "none"
	case EveryNPerProc:
		return "each"
	case EveryNTotal:
		return "total"
	case PerPortion:
		return "portion"
	}
	return fmt.Sprintf("Style(%d)", int(s))
}

// Parse converts a style name to a Style.
func Parse(s string) (Style, error) {
	for _, st := range Styles {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("barrier: unknown style %q", s)
}

// Barrier is a reusable synchronization barrier for a fixed set of
// member processes (identified by index), with support for withdrawal
// and — when a timeout is configured — quorum release: a virtual-time
// watchdog excises the members that have not arrived within the
// timeout of a generation's first arrival and releases the generation
// without them, so a dead or straggling member costs bounded skew
// instead of deadlocking the survivors. An excised member that later
// arrives rejoins the party set.
type Barrier struct {
	k       *sim.Kernel
	members []bool // members[i]: process i currently participates
	present []bool // present[i]: process i arrived in this generation
	parties int    // count of true entries in members
	arrived int    // count of true entries in present
	release *sim.Event
	// counts for introspection
	generations int

	// Quorum watchdog state (inert while timeout is zero).
	timeout        sim.Duration
	quorumReleases int
	firstQuorumAt  sim.Time // first quorum release since ResetFirstQuorum (0 = none)
	excisions      []error  // one per excision, wrapping fault.ErrBarrierTimeout

	genStart sim.Time // first arrival of the current generation
}

// New returns a barrier whose members are processes 0..parties-1.
func New(k *sim.Kernel, parties int) *Barrier {
	if parties <= 0 {
		panic("barrier: need at least one party")
	}
	b := &Barrier{
		k:       k,
		members: make([]bool, parties),
		present: make([]bool, parties),
		parties: parties,
		release: sim.NewEvent(k).SetLabel("barrier release"),
	}
	for i := range b.members {
		b.members[i] = true
	}
	return b
}

// SetTimeout arms the quorum watchdog: every generation still open
// this long after its first arrival is released without its absentees.
// Zero (the default) disables the watchdog and keeps the barrier's
// behaviour byte-identical to the pre-quorum implementation.
func (b *Barrier) SetTimeout(d sim.Duration) {
	if d < 0 {
		panic("barrier: negative timeout")
	}
	b.timeout = d
}

// Parties returns the number of currently participating processes.
func (b *Barrier) Parties() int { return b.parties }

// Arrived returns how many parties have arrived in the current
// generation.
func (b *Barrier) Arrived() int { return b.arrived }

// Generations returns how many times the barrier has released.
func (b *Barrier) Generations() int { return b.generations }

// QuorumReleases returns how many generations the watchdog released
// without their full membership.
func (b *Barrier) QuorumReleases() int { return b.quorumReleases }

// FirstQuorumAt returns the virtual time of the first quorum release
// since the last ResetFirstQuorum (or the start of the run), or zero
// if the watchdog has not fired since. Against a fault's kill time
// this is the recovery layer's detection latency: how long the
// survivors waited before giving up on the dead.
func (b *Barrier) FirstQuorumAt() sim.Time { return b.firstQuorumAt }

// ResetFirstQuorum forgets the quorum releases so far, so that
// FirstQuorumAt reports the first one from now on; the engine calls it
// when a kill lands.
func (b *Barrier) ResetFirstQuorum() { b.firstQuorumAt = 0 }

// Excisions returns one error per member excision, each wrapping
// fault.ErrBarrierTimeout with the generation and member excised. A
// member that is excised, rejoins, and is excised again appears twice.
func (b *Barrier) Excisions() []error { return b.excisions }

// Member reports whether process id currently participates.
func (b *Barrier) Member(id int) bool { return b.members[id] }

// Arrive registers member id's arrival at the current generation and
// returns the event that fires when the generation releases, along with
// whether the caller was the last arrival (in which case the event has
// already fired). The caller then waits on the event however it likes —
// in the testbed, by running prefetch actions. An excised member that
// arrives rejoins the party set first.
func (b *Barrier) Arrive(id int) (release *sim.Event, last bool) {
	if !b.members[id] {
		// Rejoin: the watchdog gave up on this member, but it is alive
		// after all. It counts toward the current and future generations
		// again.
		b.members[id] = true
		b.parties++
	}
	if b.present[id] {
		panic(fmt.Sprintf("barrier: member %d arrived twice in one generation", id))
	}
	b.present[id] = true
	b.arrived++
	if b.arrived == 1 {
		b.genStart = b.k.Now()
		if b.timeout > 0 {
			gen := b.generations
			b.k.Schedule(b.genStart.Add(b.timeout), func() { b.expire(gen) })
		}
	}
	ev := b.release
	if b.arrived == b.parties {
		b.open()
		return ev, true
	}
	return ev, false
}

// Withdraw removes member id from the barrier's party set, releasing
// the current generation if it was the only absentee. Withdrawing a
// member already excised by the watchdog is a no-op.
func (b *Barrier) Withdraw(id int) {
	if !b.members[id] {
		return
	}
	if b.present[id] {
		panic(fmt.Sprintf("barrier: member %d withdrew while waiting", id))
	}
	b.members[id] = false
	b.parties--
	if b.parties > 0 && b.arrived == b.parties {
		b.open()
	}
	// If parties reached zero with stragglers waiting, that is a caller
	// bug (a waiter cannot have withdrawn), so nothing to do here.
}

// expire is the quorum watchdog for one generation: if that generation
// is still the open one, every member that has not arrived is excised
// and the generation releases with the quorum that did.
func (b *Barrier) expire(gen int) {
	if b.generations != gen || b.arrived == 0 {
		return // the generation released on its own; stale watchdog
	}
	for id, m := range b.members {
		if m && !b.present[id] {
			b.members[id] = false
			b.parties--
			b.excisions = append(b.excisions, fmt.Errorf(
				"barrier: generation %d released without member %d: %w",
				gen, id, fault.ErrBarrierTimeout))
		}
	}
	b.quorumReleases++
	if b.firstQuorumAt == 0 {
		b.firstQuorumAt = b.k.Now()
	}
	if o := b.k.Observer(); o != nil {
		o.Add(obs.CtrQuorumReleases, 1)
	}
	b.open()
}

// open releases the current generation, reporting its span (first
// arrival to release: the paper's barrier skew) to the kernel's sink.
func (b *Barrier) open() {
	b.generations++
	if o := b.k.Observer(); o != nil {
		o.Span(obs.Span{
			Track: obs.BarrierTrack(), Kind: obs.SpanBarrierGen,
			Start: int64(b.genStart), End: int64(b.k.Now()),
			Block: -1, Arg: int64(b.parties),
		})
		o.Add(obs.CtrBarrierGens, 1)
	}
	b.arrived = 0
	for i := range b.present {
		b.present[i] = false
	}
	ev := b.release
	b.release = sim.NewEvent(b.k).SetLabel("barrier release")
	ev.Fire()
}

// Audit checks the barrier's bookkeeping invariants — the party and
// arrival counts agree with the membership and presence sets, and only
// members can be present — returning a descriptive error on the first
// violation. It never mutates state.
func (b *Barrier) Audit() error {
	members, present := 0, 0
	for id := range b.members {
		if b.members[id] {
			members++
		}
		if b.present[id] {
			present++
			if !b.members[id] {
				return fmt.Errorf("barrier: non-member %d is present", id)
			}
		}
	}
	if members != b.parties {
		return fmt.Errorf("barrier: parties %d but %d members", b.parties, members)
	}
	if present != b.arrived {
		return fmt.Errorf("barrier: arrived %d but %d present", b.arrived, present)
	}
	if b.parties > 0 && b.arrived >= b.parties {
		return fmt.Errorf("barrier: %d arrivals outstanding with %d parties (generation should have released)", b.arrived, b.parties)
	}
	return nil
}

// GenCounter tracks the sync generations demanded by the global styles
// (EveryNTotal, global PerPortion): reads or portion completions raise
// generations, and every process must pass each generation once.
type GenCounter struct {
	n      int // reads per generation for EveryNTotal; 0 for manual raising
	reads  int
	raised int
}

// NewGenCounter returns a counter that raises one generation every n
// reads, or only on explicit Raise calls if n is zero.
func NewGenCounter(n int) *GenCounter {
	if n < 0 {
		panic("barrier: negative generation interval")
	}
	return &GenCounter{n: n}
}

// ReadDone records one completed read (any process).
func (g *GenCounter) ReadDone() {
	g.reads++
	if g.n > 0 && g.reads%g.n == 0 {
		g.raised++
	}
}

// Raise raises a generation explicitly (global portion completion).
func (g *GenCounter) Raise() { g.raised++ }

// Raised returns the total generations demanded so far.
func (g *GenCounter) Raised() int { return g.raised }

// Reads returns the total reads recorded.
func (g *GenCounter) Reads() int { return g.reads }
