package sim

import "math/bits"

// timerWheel is the kernel's event queue: a hierarchical timer wheel
// with an overflow heap, behind the same four-method surface as the
// binary eventHeap it replaced (len/push/pop/peekTime). Scheduling and
// expiry are O(1) amortised instead of O(log n), which is what lets a
// single run carry 100k–1M simulated nodes without the event queue
// becoming the bottleneck.
//
// The wheel preserves the kernel's exact (at, seq) total order — every
// golden is byte-identical to the binary heap's — under two ordering
// hazards a textbook wheel ignores:
//
//   - Cascade interleavings. A cascade re-files a higher-level slot's
//     residents into a level-0 slot that later pushes for the same
//     instant may already occupy, so a slot's seqs can arrive out of
//     order. A level-0 slot therefore sorts by seq when it is
//     collected.
//   - Past-of-wheel pushes. Advance's fast path moves the clock after
//     peeking, so a later push may land at a time the wheel has
//     already collected past. wheelTime never rewinds (rewinding would
//     make slot residents ambiguous across laps); such events instead
//     join the front buffer by ordered insertion, not append.
//
// Layout: wheelLevels levels of wheelSlots slots each. Level ℓ has
// granularity 2^(6ℓ) µs, so level 0 resolves single microseconds and
// the wheel spans 2^24 µs (~16.8 virtual seconds) before the overflow
// heap takes over. One uint64 occupancy bitmap per level makes
// "earliest non-empty slot" a single bit scan.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64 slots per level
	wheelLevels = 4              // spans 2^(6*4) µs ≈ 16.8 s
	wheelMask   = wheelSlots - 1
	wheelSpan   = Time(1) << (wheelBits * wheelLevels)
)

type timerWheel struct {
	size int // events across front + slots + overflow

	// wheelTime is the wheel's notion of "no queued event is earlier
	// than this, except those already moved to front". It only ever
	// advances: every slot resident was filed under the lap implied by
	// wheelTime at insertion, so rewinding would misread laps.
	wheelTime Time

	// front is the staging buffer of due events, sorted by (at, seq);
	// fi indexes the next to pop. Pushes that land before wheelTime
	// (after a fast-path Advance) insert in order here.
	front []event
	fi    int

	slots [wheelLevels][wheelSlots][]event
	occ   [wheelLevels]uint64 // bit s set ⇔ slots[l][s] non-empty

	overflow eventHeap // events ≥ wheelSpan past wheelTime
}

func (w *timerWheel) len() int { return w.size }

func (w *timerWheel) push(e event) {
	w.size++
	if e.at < w.wheelTime {
		w.insertFront(e)
		return
	}
	w.place(e)
}

// place files an event with at >= wheelTime into a wheel level or the
// overflow heap. The level is chosen by the highest bit position where
// at and wheelTime differ (a radix rule, not a raw delta): this keeps
// every slot lap-pure — all residents of a level-ℓ slot lie in the
// *current* level-ℓ lap of wheelTime, which can never leave that lap
// while they are queued (wheelTime ≤ every queued event). Delta-based
// placement would let one slot mix residents from two laps and cascade
// could then re-file an event into the slot it came from, forever.
func (w *timerWheel) place(e event) {
	diff := uint64(e.at) ^ uint64(w.wheelTime)
	if diff>>(wheelBits*wheelLevels) != 0 {
		w.overflow.push(e) // differs above the wheel's top lap
		return
	}
	l := (bits.Len64(diff) - 1) / wheelBits // diff==0 → level 0, due now
	s := int(e.at>>(wheelBits*l)) & wheelMask
	w.slots[l][s] = append(w.slots[l][s], e)
	w.occ[l] |= 1 << uint(s)
}

// insertFront adds an event to the sorted due buffer. The common case
// (a fresh seq at the current instant) appends; an event earlier than
// the collected batch walks back to its ordered position.
func (w *timerWheel) insertFront(e event) {
	i := len(w.front)
	w.front = append(w.front, e)
	for i > w.fi {
		p := &w.front[i-1]
		if p.at < e.at || (p.at == e.at && p.seq < e.seq) {
			break
		}
		w.front[i] = *p
		i--
	}
	w.front[i] = e
}

func (w *timerWheel) pop() event {
	if w.fi == len(w.front) {
		w.collect()
	}
	e := w.front[w.fi]
	w.front[w.fi] = event{} // release proc/w/fn references
	w.fi++
	if w.fi == len(w.front) {
		w.front = w.front[:0]
		w.fi = 0
	}
	w.size--
	if w.size == 0 {
		w.shrink()
	}
	return e
}

// shrink releases oversized backing arrays once the wheel is empty.
// Burst workloads — a cluster-scale run schedules one wake per node at
// t=0 — grow the staging and overflow arrays to the burst's high-water
// mark; without this, a million-node run retains that peak for its
// whole lifetime even though steady state needs a fraction of it.
func (w *timerWheel) shrink() {
	const keep = 4096
	if cap(w.front) > keep {
		w.front = nil
	}
	if cap(w.overflow.items) > keep {
		w.overflow.items = nil
	}
	for l := range w.slots {
		for s := range w.slots[l] {
			if cap(w.slots[l][s]) > keep/wheelSlots {
				w.slots[l][s] = nil
			}
		}
	}
}

// peekTime reports the time of the earliest event. It must not be
// called on an empty wheel. It may collect (restage due events), which
// mutates internal structure but never observable order.
func (w *timerWheel) peekTime() Time {
	if w.fi == len(w.front) {
		w.collect()
	}
	return w.front[w.fi].at
}

// collect finds the globally earliest queued instant, cascading
// higher-level slots and migrating overflow as needed, and moves that
// instant's events — one level-0 slot, which holds exactly one `at`
// value — into the front buffer sorted by seq. Requires size > 0 with
// an empty front.
func (w *timerWheel) collect() {
	w.front = w.front[:0]
	w.fi = 0
	for {
		// Earliest candidate per level: the first occupied slot at or
		// cyclically after the slot containing wheelTime. For level 0
		// the candidate time is exact; for higher levels it is the
		// slot's window start, a lower bound that decides what to
		// cascade next. Levels scan high→low with a strict comparison
		// so that on ties the *higher* level cascades first: a window
		// start equal to the level-0 candidate may hide events at that
		// exact instant, and collecting level 0 before flushing them
		// would strand equal-instant events behind an advanced
		// wheelTime.
		best := MaxTime
		bestLevel, bestSlot := -1, 0
		for l := wheelLevels - 1; l >= 0; l-- {
			if w.occ[l] == 0 {
				continue
			}
			idx := int(w.wheelTime>>(wheelBits*l)) & wheelMask
			s := firstSlot(w.occ[l], idx)
			gran := Time(1) << (wheelBits * l)
			lap := w.wheelTime &^ (gran*wheelSlots - 1)
			t := lap + Time(s)*gran
			if t < best {
				best, bestLevel, bestSlot = t, l, s
			}
		}
		if w.overflow.len() > 0 && w.overflow.peekTime() <= best {
			// Everything queued is ≥ the overflow minimum (ties
			// included — an equal overflow event must rejoin the wheel
			// before that instant is collected): jump the wheel there,
			// never rewinding, and migrate the now-in-horizon prefix.
			if peek := w.overflow.peekTime(); peek > w.wheelTime {
				w.wheelTime = peek
			}
			for w.overflow.len() > 0 &&
				uint64(w.overflow.peekTime()^w.wheelTime)>>(wheelBits*wheelLevels) == 0 {
				w.place(w.overflow.pop()) // same criterion as place: lands in a level
			}
			continue
		}
		if bestLevel == 0 {
			slot := w.slots[0][bestSlot]
			w.front = append(w.front, slot...)
			for i := range slot {
				slot[i] = event{}
			}
			w.slots[0][bestSlot] = slot[:0]
			w.occ[0] &^= 1 << uint(bestSlot)
			w.sortFrontBySeq(best)
			w.wheelTime = best + 1
			return
		}
		// Cascade: advance wheelTime to the slot's window start (safe —
		// no queued event is earlier, by minimality) and redistribute
		// its events, which now all fit in levels below bestLevel.
		if best > w.wheelTime {
			w.wheelTime = best
		}
		slot := w.slots[bestLevel][bestSlot]
		w.slots[bestLevel][bestSlot] = nil
		w.occ[bestLevel] &^= 1 << uint(bestSlot)
		for i := range slot {
			w.place(slot[i])
			slot[i] = event{}
		}
	}
}

// sortFrontBySeq orders a freshly collected slot. All residents share
// one instant (level-0 slots are single-valued by construction: an
// event lands in level 0 only when at-wheelTime < 64 and collection
// empties the slot before wheelTime passes it), so seq alone decides.
// Insertion sort: slots are small and near-sorted — only cascade
// interleavings are out of place.
func (w *timerWheel) sortFrontBySeq(at Time) {
	for i := 1; i < len(w.front); i++ {
		if w.front[i].at != at {
			panic("sim: timer wheel slot holds mixed instants")
		}
		e := w.front[i]
		j := i
		for j > 0 && w.front[j-1].seq > e.seq {
			w.front[j] = w.front[j-1]
			j--
		}
		w.front[j] = e
	}
	if len(w.front) > 0 && w.front[0].at != at {
		panic("sim: timer wheel slot holds mixed instants")
	}
}

// firstSlot scans occupancy for the first set bit at or after idx.
// Lap-pure placement guarantees no occupied slot trails the cursor
// (every resident is ≥ wheelTime, so its slot index is ≥ idx).
func firstSlot(occ uint64, idx int) int {
	rot := occ >> uint(idx)
	if rot == 0 {
		panic("sim: timer wheel slot occupied behind the cursor")
	}
	return idx + bits.TrailingZeros64(rot)
}
