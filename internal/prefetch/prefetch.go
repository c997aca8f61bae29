// Package prefetch chooses the blocks the file system prefetches. Every
// candidate source sits behind one interface, Source, and New builds
// the one a configuration selects.
//
// The oracle, Policy, is the paper's: for each access pattern, a
// predictor that always chooses a block genuinely needed in the near
// future ("optimistic" — the reference strings are supplied in advance,
// §IV-B), tempered by the restrictions the paper imposes so that only
// feasibly-predictable information is used:
//
//   - Local patterns prefetch only from the issuing process's own
//     reference string; global patterns prefetch from the shared string.
//   - Irregular patterns (lrp, grp) never prefetch past the end of the
//     current portion until a demand fetch establishes the next one.
//   - Regular patterns (lfp, gfp, lw, gw) may run ahead across portions.
//   - An optional minimum prefetch lead (§V-E) skips candidates closer
//     than `lead` accesses ahead of the demand position, relaxed near
//     the end of the reference string as in the paper.
//
// The on-the-fly predictors (OBL, SEQ, GAPS; predict.go) see only the
// demand stream, the future work the paper defers.
package prefetch

import (
	"fmt"

	"repro/internal/pattern"
)

// Source proposes prefetch candidates. The engine reports every demand
// read to it and asks it for a candidate whenever a processor has idle
// time to spend on a prefetch action.
type Source interface {
	// Demand records that node issued a demand read of block at
	// reference-string index idx: into the node's own string for local
	// patterns, into the shared one for global patterns. idx is -1 for
	// a takeover read of a killed node's block.
	Demand(node, idx, block int)
	// Next proposes the next block node should prefetch, skipping
	// blocks for which inCache reports true. ok is false when the
	// source has no candidate right now.
	Next(node int, inCache func(block int) bool) (block int, ok bool)
	// Demote reports that block, prefetched but never consumed, left
	// the cache because its fill failed.
	Demote(block int)
}

// Kind selects a candidate source. The values are part of the JSON
// encoding of every configuration that names one.
type Kind int

// Candidate sources: the paper's reference-string oracle and the three
// on-the-fly predictors.
const (
	Oracle Kind = iota
	OBL
	SEQ
	GAPS
)

// Kinds lists the on-the-fly predictor kinds (excluding Oracle).
var Kinds = []Kind{OBL, SEQ, GAPS}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Oracle:
		return "oracle"
	case OBL:
		return "obl"
	case SEQ:
		return "seq"
	case GAPS:
		return "gaps"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Parse converts a source name to a Kind.
func Parse(s string) (Kind, error) {
	for _, k := range []Kind{Oracle, OBL, SEQ, GAPS} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("prefetch: unknown predictor %q", s)
}

// New builds the candidate source of the given kind for a generated
// pattern: the oracle Policy with minimum prefetch lead lead (0
// reproduces the paper's base strategy), or an on-the-fly predictor.
// It panics on an unknown kind, a negative lead, or a lead for a
// predictor.
func New(kind Kind, pat *pattern.Pattern, lead int) Source {
	if kind == Oracle {
		return newPolicy(pat, lead)
	}
	if lead != 0 {
		panic(fmt.Sprintf("prefetch: minimum lead %d needs the oracle, not %v", lead, kind))
	}
	return newPredictor(kind, pat.Procs, pat.FileBlocks)
}

// Policy is the oracle Source: it selects prefetch candidates from a
// generated pattern's reference strings.
//
// On a global pattern with zero lead it scans with a forward-only
// cursor: indices a scan has verified in-cache are never re-examined,
// turning Next from a walk over every cached-ahead entry (O(prefetch
// buffers) per call — the quadratic term that dominates cluster-scale
// runs) into an amortized O(1) cursor advance.
//
// The cursor is exact — byte-identical selections — only when every way
// a block at an index at or above the demand cursor can leave the cache
// is reported back through Demote, and the string never repeats a
// block. A global pattern with zero lead guarantees both: generators
// emit each block once, every read notes demand (so consumed blocks sit
// below the cursor by the time they become evictable), the oracle's
// unconsumed prefetched frames are not subject to mistake eviction, and
// without a lead window the verified range stays contiguous. Fault
// injection is covered, not disqualifying: a failed demand fill drops a
// block already below the demand cursor, a capacity squeeze claims
// frames exactly as an allocation would (consumed blocks only), and the
// one remaining hole — a failed prefetch fill silently demoting a block
// the scan may have verified while its transfer was in flight — is
// plugged by the cache's demote hook calling Demote.
type Policy struct {
	pat  *pattern.Pattern
	lead int

	// monotone enables the forward-only scan cursor: a global pattern
	// with zero lead.
	monotone bool

	states []stringState // one per process (local) or a single shared one (global)
}

type stringState struct {
	portions   []pattern.Portion // the string
	nextDemand int               // lowest reference-string index not yet demanded
	// scanFrom, in monotone mode, is the forward scan cursor: every
	// index in [nextDemand, scanFrom) was verified in-cache by an
	// earlier scan, and only the holes among them can have left since.
	scanFrom int
	// holes, in monotone mode, is a min-heap of the indices below
	// scanFrom that Demote reported dropped. A scan discards a hole
	// once it falls below nextDemand or is back in the cache.
	holes []int
}

// newPolicy builds the oracle for a pattern with the given minimum
// prefetch lead.
func newPolicy(pat *pattern.Pattern, lead int) *Policy {
	if lead < 0 {
		panic(fmt.Sprintf("prefetch: negative lead %d", lead))
	}
	nStrings := 1
	if pat.Kind.Local() {
		nStrings = pat.Procs
	}
	p := &Policy{pat: pat, lead: lead, monotone: lead == 0 && pat.Kind.Global(), states: make([]stringState, nStrings)}
	for i := range p.states {
		p.states[i].portions = pat.Portions(i)
	}
	return p
}

// Demote reports that block, previously present in the cache, was
// dropped without being consumed (a failed prefetch fill under fault
// injection). If the cursor has passed the block's string index, the
// index is queued as a hole that the next scans re-examine before
// resuming at the cursor — the invalidation that keeps the monotone
// cursor exact on faulted runs without re-verifying everything between
// the hole and the cursor. The block's index is a binary search over
// the shared string's portions, which a global pattern keeps disjoint
// and in block order. No-op when the cursor is off (local patterns and
// lead runs) or for a block outside the string.
func (p *Policy) Demote(block int) {
	if !p.monotone {
		return
	}
	st := &p.states[0]
	if idx := pattern.IndexOf(st.portions, block); idx >= 0 && idx < st.scanFrom {
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

// Demand records that the access at reference-string index idx has
// been issued by a process. Demand progress both defines the prefetch
// horizon for irregular patterns and anchors the minimum-lead window.
// A takeover read (idx < 0) carries no string position and is ignored.
func (p *Policy) Demand(node, idx, _ int) {
	if idx < 0 {
		return
	}
	st := p.stateFor(node)
	if idx >= pattern.Len(st.portions) {
		panic(fmt.Sprintf("prefetch: demand index %d out of range", idx))
	}
	if idx+1 > st.nextDemand {
		st.nextDemand = idx + 1
	}
}

// horizon returns one past the last reference-string index the policy
// may prefetch for this state.
func (st *stringState) horizon(regular bool) int {
	n := pattern.Len(st.portions)
	if regular {
		return n
	}
	// Irregular: only within the portion the demand stream has reached.
	// Before any demand, the first portion's location is known (the
	// process is about to start there).
	anchor := st.nextDemand - 1
	if anchor < 0 {
		anchor = 0
	}
	if anchor >= n {
		return n
	}
	por := st.portions[pattern.PortionOf(st.portions, anchor)]
	return por.End()
}

// Next proposes the next block for node to prefetch: the nearest
// future access whose block is not already cached, at least `lead`
// accesses ahead of the demand cursor (relaxed near the end of the
// string), and within the portion horizon for irregular patterns.
// It reports ok=false when no candidate exists right now.
func (p *Policy) Next(node int, inCache func(block int) bool) (block int, ok bool) {
	st := p.stateFor(node)
	regular := p.pat.Kind.Regular()
	if p.pat.Kind.Local() {
		regular = p.pat.RegularFor(node)
	}
	limit := st.horizon(regular)
	start := st.nextDemand + p.lead
	if block, ok = p.scan(st, start, limit, inCache); ok {
		return block, true
	}
	// Near the end of the string the lead window may be empty; the paper
	// relaxes the restriction there so the tail can still be prefetched.
	if p.lead > 0 && start > limit-1 {
		return p.scan(st, st.nextDemand, limit, inCache)
	}
	return 0, false
}

// scan walks [from, to) of the state's string for the first uncached
// block, portion by portion from the one holding from. In monotone mode
// the holes are the only indices below the cursor that can be uncached,
// so it first returns the lowest hole still uncached, leaving it
// queued, and otherwise starts at the cursor and advances it past
// everything it verifies; the returned block's index itself is not
// passed, since the caller's prefetch of it may still fail.
func (p *Policy) scan(st *stringState, from, to int, inCache func(int) bool) (block int, ok bool) {
	if from < 0 {
		from = 0
	}
	if p.monotone {
		for len(st.holes) > 0 && (st.holes[0] < from || inCache(pattern.BlockAt(st.portions, st.holes[0]))) {
			st.popHole()
		}
		if len(st.holes) > 0 {
			// Every index from `from` to the hole is cached, and the
			// hole lies below the cursor.
			if i := st.holes[0]; i < to {
				return pattern.BlockAt(st.portions, i), true
			}
			return 0, false
		}
		if st.scanFrom > from {
			from = st.scanFrom
		}
	}
	if from < to {
		for k := pattern.PortionOf(st.portions, from); from < to; k++ {
			por := st.portions[k]
			for end := min(por.End(), to); from < end; from++ {
				if block = por.Start + from - por.Index; !inCache(block) {
					if p.monotone {
						st.scanFrom = from
					}
					return block, true
				}
			}
		}
	}
	if p.monotone && to > st.scanFrom {
		st.scanFrom = to
	}
	return 0, false
}
