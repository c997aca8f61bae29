// Package prefetch implements the paper's prefetching policies: for each
// access pattern, a predictor that always chooses a block genuinely
// needed in the near future ("optimistic" — the reference strings are
// supplied in advance, §IV-B), tempered by the restrictions the paper
// imposes so that only feasibly-predictable information is used:
//
//   - Local patterns prefetch only from the issuing process's own
//     reference string; global patterns prefetch from the shared string.
//   - Irregular patterns (lrp, grp) never prefetch past the end of the
//     current portion until a demand fetch establishes the next one.
//   - Regular patterns (lfp, gfp, lw, gw) may run ahead across portions.
//   - An optional minimum prefetch lead (§V-E) skips candidates closer
//     than `lead` accesses ahead of the demand position, relaxed near
//     the end of the reference string as in the paper.
package prefetch

import (
	"fmt"

	"repro/internal/pattern"
)

// Policy selects prefetch candidates for a generated pattern. It is
// driven by the engine: NoteDemand records demand progress, Select
// proposes the next block to prefetch.
type Policy struct {
	pat  *pattern.Pattern
	lead int

	// monotone enables the forward-only scan cursor (see SetMonotone).
	monotone bool

	// indexOf maps a block id to its reference-string index, built
	// lazily on the first Demote. Only global patterns (one shared
	// string, each block emitted once) ever need it, which keeps
	// fault-free monotone runs paying nothing for the demotion path.
	indexOf []int32

	states []stringState // one per process (local) or a single shared one (global)
}

type stringState struct {
	str        []int
	portions   []pattern.Portion
	nextDemand int // lowest reference-string index not yet demanded
	// scanFrom, in monotone mode, is the forward scan cursor: every
	// index in [nextDemand, scanFrom) was verified in-cache by an
	// earlier scan, and only the holes among them can have left since.
	scanFrom int
	// holes, in monotone mode, is a min-heap of the indices below
	// scanFrom that Demote reported dropped. A scan discards a hole
	// once it falls below nextDemand or is back in the cache.
	holes []int
}

// NewPolicy builds the policy for a pattern with the given minimum
// prefetch lead (0 reproduces the paper's base strategy).
func NewPolicy(pat *pattern.Pattern, lead int) *Policy {
	if lead < 0 {
		panic(fmt.Sprintf("prefetch: negative lead %d", lead))
	}
	p := &Policy{pat: pat, lead: lead}
	if pat.Kind.Local() {
		p.states = make([]stringState, len(pat.Local))
		for i := range pat.Local {
			p.states[i] = stringState{str: pat.Local[i], portions: pat.LocalPortions[i]}
		}
	} else {
		p.states = []stringState{{str: pat.Global, portions: pat.GlobalPortions}}
	}
	return p
}

// Lead returns the configured minimum prefetch lead.
func (p *Policy) Lead() int { return p.lead }

// SetMonotone enables a forward-only scan cursor: indices a scan has
// verified in-cache are never re-examined, turning Select from a walk
// over every cached-ahead entry (O(prefetch buffers) per call — the
// quadratic term that dominates cluster-scale runs) into an amortized
// O(1) cursor advance.
//
// The optimization is exact — byte-identical selections — only when
// every way a block at an index at or above the demand cursor can
// leave the cache is reported back through Demote, and the string
// never repeats a block. The engine enables it exactly when it can
// guarantee both: a global pattern (generators emit each block once;
// every read notes demand, so consumed blocks sit below the cursor by
// the time they become evictable), the oracle policy (unconsumed
// prefetched frames are not subject to mistake eviction), and zero
// lead (a lead window makes verified ranges non-contiguous). Fault
// injection is covered, not disqualifying: a failed demand fill drops
// a block already below the demand cursor, a capacity squeeze claims
// frames exactly as an allocation would (consumed blocks only), and
// the one remaining hole — a failed prefetch fill silently demoting a
// block the scan may have verified while its transfer was in flight —
// is plugged by the cache's demote hook calling Demote. Panics if the
// policy has a lead.
func (p *Policy) SetMonotone(on bool) {
	if on && p.lead != 0 {
		panic("prefetch: monotone scan requires zero lead")
	}
	p.monotone = on
}

// Demote reports that block, previously present in the cache, was
// dropped without being consumed (a failed prefetch fill under fault
// injection). If the cursor has passed the block's string index, the
// index is queued as a hole that the next scans re-examine before
// resuming at the cursor — the invalidation that keeps the monotone
// cursor exact on faulted runs without re-verifying everything between
// the hole and the cursor. No-op when the cursor is off, for local
// patterns, or for a block outside the string.
func (p *Policy) Demote(block int) {
	if !p.monotone || p.pat.Kind.Local() {
		return
	}
	if p.indexOf == nil {
		str := p.states[0].str
		max := -1
		for _, b := range str {
			if b > max {
				max = b
			}
		}
		p.indexOf = make([]int32, max+1)
		for i := range p.indexOf {
			p.indexOf[i] = -1
		}
		for i, b := range str {
			p.indexOf[b] = int32(i)
		}
	}
	if block < 0 || block >= len(p.indexOf) {
		return
	}
	if idx, st := int(p.indexOf[block]), &p.states[0]; idx >= 0 && idx < st.scanFrom {
		st.pushHole(idx)
	}
}

// pushHole adds index i to the holes heap.
func (st *stringState) pushHole(i int) {
	h := append(st.holes, i)
	for c := len(h) - 1; c > 0; {
		parent := (c - 1) / 2
		if h[parent] <= h[c] {
			break
		}
		h[parent], h[c] = h[c], h[parent]
		c = parent
	}
	st.holes = h
}

// popHole removes the lowest hole.
func (st *stringState) popHole() {
	h := st.holes
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	st.holes = h
}

func (p *Policy) stateFor(node int) *stringState {
	if p.pat.Kind.Local() {
		return &p.states[node]
	}
	return &p.states[0]
}

// NoteDemand records that the access at reference-string index idx has
// been issued by a process (for local patterns, index into that node's
// string; for global patterns, into the shared string). Demand progress
// both defines the prefetch horizon for irregular patterns and anchors
// the minimum-lead window.
func (p *Policy) NoteDemand(node, idx int) {
	st := p.stateFor(node)
	if idx < 0 || idx >= len(st.str) {
		panic(fmt.Sprintf("prefetch: demand index %d out of range", idx))
	}
	if idx+1 > st.nextDemand {
		st.nextDemand = idx + 1
	}
}

// NextDemand returns the node's (or the global) demand cursor.
func (p *Policy) NextDemand(node int) int { return p.stateFor(node).nextDemand }

// horizon returns one past the last reference-string index the policy
// may prefetch for this state.
func (st *stringState) horizon(regular bool) int {
	if regular {
		return len(st.str)
	}
	// Irregular: only within the portion the demand stream has reached.
	// Before any demand, the first portion's location is known (the
	// process is about to start there).
	anchor := st.nextDemand - 1
	if anchor < 0 {
		anchor = 0
	}
	if anchor >= len(st.str) {
		return len(st.str)
	}
	por := st.portions[pattern.PortionOf(st.portions, anchor)]
	return por.End()
}

// Select proposes the next block for node to prefetch: the nearest
// future access whose block is not already cached, at least `lead`
// accesses ahead of the demand cursor (relaxed near the end of the
// string), and within the portion horizon for irregular patterns.
// It reports ok=false when no candidate exists right now.
func (p *Policy) Select(node int, inCache func(block int) bool) (block, idx int, ok bool) {
	st := p.stateFor(node)
	regular := p.pat.Kind.Regular()
	if p.pat.Kind.Local() {
		regular = p.pat.RegularFor(node)
	}
	limit := st.horizon(regular)
	start := st.nextDemand + p.lead
	if block, idx, ok = p.scan(st, start, limit, inCache); ok {
		return block, idx, true
	}
	// Near the end of the string the lead window may be empty; the paper
	// relaxes the restriction there so the tail can still be prefetched.
	if p.lead > 0 && start > limit-1 {
		return p.scan(st, st.nextDemand, limit, inCache)
	}
	return 0, 0, false
}

// scan walks [from, to) of the state's string for the first uncached
// block. In monotone mode the holes are the only indices below the
// cursor that can be uncached, so it first returns the lowest hole
// still uncached, leaving it queued, and otherwise starts at the cursor
// and advances it past everything it verifies; the returned index
// itself is not passed, since the caller's prefetch of it may still
// fail.
func (p *Policy) scan(st *stringState, from, to int, inCache func(int) bool) (block, idx int, ok bool) {
	if from < 0 {
		from = 0
	}
	if p.monotone {
		for len(st.holes) > 0 && (st.holes[0] < from || inCache(st.str[st.holes[0]])) {
			st.popHole()
		}
		if len(st.holes) > 0 {
			// Every index from `from` to the hole is cached, and the
			// hole lies below the cursor.
			if i := st.holes[0]; i < to {
				return st.str[i], i, true
			}
			return 0, 0, false
		}
		if st.scanFrom > from {
			from = st.scanFrom
		}
	}
	for i := from; i < to; i++ {
		if !inCache(st.str[i]) {
			if p.monotone {
				st.scanFrom = i
			}
			return st.str[i], i, true
		}
	}
	if p.monotone && to > st.scanFrom {
		st.scanFrom = to
	}
	return 0, 0, false
}

// Exhausted reports whether the node's demand stream has consumed its
// whole reference string.
func (p *Policy) Exhausted(node int) bool {
	st := p.stateFor(node)
	return st.nextDemand >= len(st.str)
}
