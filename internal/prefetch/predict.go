package prefetch

import "fmt"

// The on-the-fly predictors — the future work the paper defers in §III
// ("we defer consideration of on-the-fly prediction algorithms") and
// calls for in §VI ("investigating mechanisms to gain information about
// the access patterns that may then be used in prefetching decisions").
//
// Unlike the oracle, predictors observe only the demand stream and
// therefore make mistakes: they can prefetch blocks nobody will read
// (wasted transfers that occupy prefetch frames until evicted) and miss
// blocks they could have fetched. Three are provided, in increasing
// sophistication:
//
//   - OBL — one-block lookahead, the classic uniprocessor policy from
//     the paper's related work (§II-B): on a demand for block b,
//     predict b+1.
//   - SEQ — an adaptive per-process sequential-run detector: the longer
//     the run of consecutive blocks a process has demanded, the further
//     ahead it prefetches (up to a cap), and a broken run resets it.
//   - GAPS — a global-perspective detector: it watches the *merged*
//     demand stream, estimates how sequential it is, and when
//     confidence is high prefetches just beyond the global frontier.
//     Local-only views cannot see globally sequential patterns (the
//     paper's central observation about gw); this one can.
//
// A predictor observes every demand read, takeover reads included, and
// its Demote is a no-op: a failed fill leaves nothing to correct.

// newPredictor constructs a predictor of the given kind for a file of
// fileBlocks blocks read by nodes processes. It panics on bad
// dimensions and on kinds that are not predictors.
func newPredictor(kind Kind, nodes, fileBlocks int) Source {
	if nodes <= 0 || fileBlocks <= 0 {
		panic(fmt.Sprintf("prefetch: bad dimensions nodes=%d fileBlocks=%d", nodes, fileBlocks))
	}
	switch kind {
	case OBL:
		return newOBL(nodes, fileBlocks)
	case SEQ:
		return newSEQ(nodes, fileBlocks)
	case GAPS:
		return newGAPS(nodes, fileBlocks)
	}
	panic(fmt.Sprintf("prefetch: unknown candidate source %v", kind))
}

// obl predicts block+1 after each demand, per node.
type obl struct {
	fileBlocks int
	last       []int // last demanded block per node; -1 before any
}

func newOBL(nodes, fileBlocks int) *obl {
	p := &obl{fileBlocks: fileBlocks, last: make([]int, nodes)}
	for i := range p.last {
		p.last[i] = -1
	}
	return p
}

func (p *obl) Demand(node, _, block int) { p.last[node] = block }

func (p *obl) Demote(int) {}

func (p *obl) Next(node int, inCache func(int) bool) (int, bool) {
	b := p.last[node]
	if b < 0 {
		return 0, false
	}
	next := b + 1
	if next >= p.fileBlocks || inCache(next) {
		return 0, false
	}
	return next, true
}

// seq adaptively extends a per-node sequential window: run length
// doubles confidence up to a cap, a non-consecutive access resets it.
type seq struct {
	fileBlocks int
	last       []int // last demanded block, -1 initially
	run        []int // current consecutive run length
	maxAhead   int
}

// seqMaxAhead caps how far SEQ will run ahead of a process's demand at
// the paper's prefetch-buffer budget per process (3). A larger window
// overcommits the shared prefetch pool: every portion end turns the
// whole window into mispredictions, and with 20 processes those
// evictions cascade into re-fetch thrash.
const seqMaxAhead = 3

func newSEQ(nodes, fileBlocks int) *seq {
	p := &seq{
		fileBlocks: fileBlocks,
		last:       make([]int, nodes),
		run:        make([]int, nodes),
		maxAhead:   seqMaxAhead,
	}
	for i := range p.last {
		p.last[i] = -1
	}
	return p
}

func (p *seq) Demand(node, _, block int) {
	if p.last[node] >= 0 && block == p.last[node]+1 {
		p.run[node]++
	} else {
		p.run[node] = 1
	}
	p.last[node] = block
}

func (p *seq) Demote(int) {}

func (p *seq) Next(node int, inCache func(int) bool) (int, bool) {
	if p.last[node] < 0 {
		return 0, false
	}
	// Confidence window: as long as the observed run, capped.
	ahead := p.run[node]
	if ahead > p.maxAhead {
		ahead = p.maxAhead
	}
	for d := 1; d <= ahead; d++ {
		next := p.last[node] + d
		if next >= p.fileBlocks {
			return 0, false
		}
		if !inCache(next) {
			return next, true
		}
	}
	return 0, false
}

// gaps watches the merged demand stream from a global perspective: it
// tracks the frontier (highest block demanded so far) and an estimate
// of how sequential the merged stream is, and prefetches past the
// frontier in proportion to that confidence.
type gaps struct {
	fileBlocks int
	frontier   int // highest block demanded; -1 initially
	// seqScore is a saturating counter: +1 for a demand near the
	// frontier, -2 for a demand far from it.
	seqScore int
	maxScore int
	// nearWindow defines "near the frontier": within one block per
	// cooperating process, the slack self-scheduling introduces.
	nearWindow int
}

const gapsMaxScore = 32

func newGAPS(nodes, fileBlocks int) *gaps {
	return &gaps{
		fileBlocks: fileBlocks,
		frontier:   -1,
		maxScore:   gapsMaxScore,
		nearWindow: 2 * nodes,
	}
}

func (p *gaps) Demand(node, _, block int) {
	if p.frontier < 0 {
		p.frontier = block
		return
	}
	dist := block - p.frontier
	if dist < 0 {
		dist = -dist
	}
	if dist <= p.nearWindow {
		if p.seqScore < p.maxScore {
			p.seqScore++
		}
	} else {
		p.seqScore -= 2
		if p.seqScore < 0 {
			p.seqScore = 0
		}
	}
	if block > p.frontier {
		p.frontier = block
	}
}

// confidenceThreshold is the score above which GAPS trusts the global
// stream enough to prefetch.
const gapsConfidence = 6

func (p *gaps) Demote(int) {}

func (p *gaps) Next(node int, inCache func(int) bool) (int, bool) {
	if p.frontier < 0 || p.seqScore < gapsConfidence {
		return 0, false
	}
	// Prefetch depth grows with confidence.
	depth := p.seqScore
	for d := 1; d <= depth; d++ {
		next := p.frontier + d
		if next >= p.fileBlocks {
			return 0, false
		}
		if !inCache(next) {
			return next, true
		}
	}
	return 0, false
}
