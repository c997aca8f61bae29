package prefetch

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pattern"
)

func noneCached(int) bool { return false }

// anyBlock stands in for the demanded block in calls to the oracle's
// Demand, which tracks string positions only.
const anyBlock = -1

func cachedSet(blocks ...int) func(int) bool {
	m := map[int]bool{}
	for _, b := range blocks {
		m[b] = true
	}
	return func(b int) bool { return m[b] }
}

func smallGW(total int) *pattern.Pattern {
	cfg := pattern.Defaults(pattern.GW)
	cfg.TotalBlocks = total
	return pattern.MustGenerate(cfg)
}

func TestSelectNearestFuture(t *testing.T) {
	p := newPolicy(smallGW(10), 0)
	block, ok := p.Next(0, noneCached)
	if !ok || block != 0 {
		t.Fatalf("Next = %d,%v", block, ok)
	}
	p.Demand(0, 0, anyBlock)
	p.Demand(0, 1, anyBlock)
	block, ok = p.Next(0, noneCached)
	if !ok || block != 2 {
		t.Fatalf("after demand: Next = %d,%v", block, ok)
	}
}

func TestSelectSkipsCached(t *testing.T) {
	p := newPolicy(smallGW(10), 0)
	block, ok := p.Next(0, cachedSet(0, 1, 2))
	if !ok || block != 3 {
		t.Fatalf("Next = %d,%v, want 3", block, ok)
	}
}

func TestSelectExhausted(t *testing.T) {
	p := newPolicy(smallGW(3), 0)
	if _, ok := p.Next(0, cachedSet(0, 1, 2)); ok {
		t.Fatal("Next found candidate with everything cached")
	}
	for i := 0; i < 3; i++ {
		p.Demand(0, i, anyBlock)
	}
	if _, ok := p.Next(0, noneCached); ok {
		t.Fatal("Next found candidate past end of string")
	}
}

func TestLeadWindow(t *testing.T) {
	p := newPolicy(smallGW(100), 10)
	block, ok := p.Next(0, noneCached)
	if !ok || block != 10 {
		t.Fatalf("lead Next = %d,%v, want 10", block, ok)
	}
	p.Demand(0, 0, anyBlock)
	block, ok = p.Next(0, noneCached)
	if !ok || block != 11 {
		t.Fatalf("lead Next after demand = %d, want 11", block)
	}
}

func TestLeadRelaxedNearEnd(t *testing.T) {
	p := newPolicy(smallGW(10), 50) // lead longer than the string
	block, ok := p.Next(0, noneCached)
	if !ok || block != 0 {
		t.Fatalf("relaxed Next = %d,%v, want 0", block, ok)
	}
	// After demand has nearly exhausted the string, the tail must still
	// be reachable.
	for i := 0; i < 8; i++ {
		p.Demand(0, i, anyBlock)
	}
	block, ok = p.Next(0, noneCached)
	if !ok || block != 8 {
		t.Fatalf("tail Next = %d,%v, want 8", block, ok)
	}
}

func TestLeadWindowEmptyButNotAtEnd(t *testing.T) {
	// With lead=5 on a 100-block string, demand at 0: window [5,100).
	// All of [5,100) cached → no candidate, but NO relaxation (we are
	// not near the end), so blocks 1..4 must not be offered.
	p := newPolicy(smallGW(100), 5)
	cached := func(b int) bool { return b >= 5 }
	if _, ok := p.Next(0, cached); ok {
		t.Fatal("Next offered a block inside the lead window")
	}
}

func TestIrregularPortionHorizon(t *testing.T) {
	cfg := pattern.Defaults(pattern.GRP)
	cfg.TotalBlocks = 60
	cfg.MinPortion, cfg.MaxPortion = 4, 16
	cfg.MinGap, cfg.MaxGap = 4, 16
	pat := pattern.MustGenerate(cfg)
	p := newPolicy(pat, 0)
	str := expand(pat, 0)
	first := pat.GlobalPortions[0]
	// Before any demand, only the first portion is prefetchable.
	for i := 0; i < first.Len; i++ {
		block, ok := p.Next(0, cachedBelowIdx(str, i))
		if !ok {
			t.Fatalf("no candidate at step %d", i)
		}
		if block != str[i] {
			t.Fatalf("step %d: got block %d, want %d", i, block, str[i])
		}
	}
	// Everything in portion 0 cached: no candidate until demand enters
	// portion 1.
	if _, ok := p.Next(0, cachedBelowIdx(str, first.Len)); ok {
		t.Fatal("prefetched past unestablished portion boundary")
	}
	// Demand reaches into portion 1: its remainder becomes available.
	p.Demand(0, first.Len, str[first.Len])
	block, ok := p.Next(0, cachedBelowIdx(str, first.Len+1))
	if !ok || block != str[first.Len+1] {
		t.Fatalf("portion 1: got %d,%v (want %d)", block, ok, str[first.Len+1])
	}
}

// expand returns the block sequence of node's reference string,
// written out from its portions.
func expand(pat *pattern.Pattern, node int) []int {
	var str []int
	for _, por := range pat.Portions(node) {
		for b := por.Start; b < por.Start+por.Len; b++ {
			str = append(str, b)
		}
	}
	return str
}

func cachedBelowIdx(str []int, n int) func(int) bool {
	m := map[int]bool{}
	for i := 0; i < n; i++ {
		m[str[i]] = true
	}
	return func(b int) bool { return m[b] }
}

func TestRegularCrossesPortions(t *testing.T) {
	cfg := pattern.Defaults(pattern.GFP)
	cfg.TotalBlocks = 40
	pat := pattern.MustGenerate(cfg)
	p := newPolicy(pat, 0)
	// All of portion 0 cached; candidate should come from portion 1
	// even with no demand there (regular patterns may run ahead).
	str := expand(pat, 0)
	first := pat.GlobalPortions[0]
	block, ok := p.Next(0, cachedBelowIdx(str, first.Len))
	if !ok || block != str[first.Len] {
		t.Fatalf("regular cross-portion Next = %d,%v, want %d", block, ok, str[first.Len])
	}
}

func TestLocalPatternPerNodeStrings(t *testing.T) {
	cfg := pattern.Defaults(pattern.LFP)
	cfg.Procs = 3
	cfg.BlocksPerProc = 20
	pat := pattern.MustGenerate(cfg)
	p := newPolicy(pat, 0)
	b0, ok0 := p.Next(0, noneCached)
	b1, ok1 := p.Next(1, noneCached)
	if !ok0 || !ok1 {
		t.Fatal("local Next failed")
	}
	if b0 == b1 {
		t.Fatal("different nodes selected the same block in a disjoint pattern")
	}
	if want0, want1 := expand(pat, 0)[0], expand(pat, 1)[0]; b0 != want0 || b1 != want1 {
		t.Fatalf("nodes selected %d,%d, want own first blocks %d,%d", b0, b1, want0, want1)
	}
	// Demand progress on node 0 must not affect node 1.
	p.Demand(0, 0, anyBlock)
	if p.states[1].nextDemand != 0 {
		t.Fatal("demand leaked across local nodes")
	}
}

func TestGlobalSharedCursor(t *testing.T) {
	p := newPolicy(smallGW(10), 0)
	p.Demand(3, 4, anyBlock) // any node updates the shared cursor
	if got := p.stateFor(0).nextDemand; got != 5 {
		t.Fatalf("shared cursor = %d, want 5", got)
	}
}

func TestNoteDemandMonotone(t *testing.T) {
	p := newPolicy(smallGW(10), 0)
	p.Demand(0, 5, anyBlock)
	p.Demand(0, 2, anyBlock) // out-of-order claims must not move the cursor back
	if got := p.stateFor(0).nextDemand; got != 6 {
		t.Fatalf("cursor = %d, want 6", got)
	}
}

func TestNoteDemandPanicsOutOfRange(t *testing.T) {
	p := newPolicy(smallGW(5), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Demand did not panic")
		}
	}()
	p.Demand(0, 5, anyBlock)
}

// TestTakeoverDemand: a takeover read (idx -1) has no position in the
// reader's string, so the oracle ignores it; a predictor observes its
// block like any other demand.
func TestTakeoverDemand(t *testing.T) {
	p := newPolicy(smallGW(10), 0)
	p.Demand(0, -1, 7)
	if got := p.stateFor(0).nextDemand; got != 0 {
		t.Fatalf("oracle cursor after a takeover read = %d, want 0", got)
	}
	o := predictor(OBL, 1, 10)
	o.Demand(0, -1, 7)
	if block, ok := o.Next(0, noneCached); !ok || block != 8 {
		t.Fatalf("OBL after a takeover read of 7: Next = %d,%v, want 8", block, ok)
	}
}

func TestNewPolicyPanicsOnNegativeLead(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative lead did not panic")
		}
	}()
	New(Oracle, smallGW(5), -1)
}

func TestLRPHorizonPerProcess(t *testing.T) {
	cfg := pattern.Defaults(pattern.LRP)
	cfg.Procs = 2
	cfg.BlocksPerProc = 30
	pat := pattern.MustGenerate(cfg)
	p := newPolicy(pat, 0)
	// For each proc, with nothing cached, the first candidate is its own
	// first block, and with the whole first portion cached there is no
	// candidate (portion horizon).
	for proc := 0; proc < 2; proc++ {
		str := expand(pat, proc)
		block, ok := p.Next(proc, noneCached)
		if !ok || block != str[0] {
			t.Fatalf("proc %d first candidate = %d,%v", proc, block, ok)
		}
		first := pat.LocalPortions[proc][0]
		if _, ok := p.Next(proc, cachedBelowIdx(str, first.Len)); ok {
			t.Fatalf("proc %d prefetched past its portion horizon", proc)
		}
	}
}

// TestDemoteQueuesHole pins the fault-run exactness contract of the
// monotone cursor: a block a scan verified in-cache that later drops
// out (a failed prefetch fill) is invisible to the cursor until Demote
// reports it, and re-examined afterwards.
func TestDemoteQueuesHole(t *testing.T) {
	p := newPolicy(smallGW(10), 0)
	// Blocks 0-4 cached: the scan verifies them and parks the cursor
	// at the first uncached index, 5.
	block, ok := p.Next(0, cachedSet(0, 1, 2, 3, 4))
	if !ok || block != 5 {
		t.Fatalf("Next = %d,%v, want 5", block, ok)
	}
	// Block 2 silently leaves the cache: the cursor never looks back —
	// exactly the hole the cache's demote hook plugs.
	if block, _ = p.Next(0, cachedSet(0, 1, 3, 4, 5)); block != 6 {
		t.Fatalf("Next after silent drop = %d, want 6 (cursor is forward-only)", block)
	}
	p.Demote(2)
	if block, ok = p.Next(0, cachedSet(0, 1, 3, 4, 5)); !ok || block != 2 {
		t.Fatalf("Next after Demote = %d,%v, want 2", block, ok)
	}
}

// TestDemoteNoops: Demote must be inert when the cursor is off (a lead
// or a local pattern) and for block ids outside the string.
func TestDemoteNoops(t *testing.T) {
	p := newPolicy(smallGW(10), 2)
	if block, ok := p.Next(0, cachedSet(2, 3, 4)); !ok || block != 5 {
		t.Fatalf("Next = %d,%v, want 5", block, ok)
	}
	p.Demote(3) // a lead turns the cursor off
	if p.monotone || len(p.states[0].holes) != 0 {
		t.Fatalf("lead policy: monotone %v, holes %v", p.monotone, p.states[0].holes)
	}

	p = newPolicy(smallGW(10), 0)
	p.Demote(-1) // outside the string: ignored
	p.Demote(99)
	if block, ok := p.Next(0, noneCached); !ok || block != 0 {
		t.Fatalf("Next = %d,%v, want 0", block, ok)
	}

	cfg := pattern.Defaults(pattern.LFP)
	cfg.Procs = 2
	cfg.BlocksPerProc = 10
	lp := newPolicy(pattern.MustGenerate(cfg), 0)
	lp.Demote(3) // local pattern: per-node strings never get the cursor
	if lp.monotone {
		t.Fatal("local pattern got the monotone cursor")
	}
	if _, ok := lp.Next(0, noneCached); !ok {
		t.Fatal("local Next found no candidate")
	}
}

// TestDemoteCostsConstantProbes: a hole far behind the cursor is
// re-examined on its own, not by re-verifying every cached index
// between it and the cursor.
func TestDemoteCostsConstantProbes(t *testing.T) {
	p := newPolicy(smallGW(1000), 0)
	cached := map[int]bool{}
	for b := 0; b < 900; b++ {
		cached[b] = true
	}
	probes := 0
	inCache := func(b int) bool { probes++; return cached[b] }
	if block, ok := p.Next(0, inCache); !ok || block != 900 {
		t.Fatalf("Next = %d,%v, want 900", block, ok)
	}
	delete(cached, 10)
	p.Demote(10)
	probes = 0
	if block, ok := p.Next(0, inCache); !ok || block != 10 {
		t.Fatalf("Next after Demote = %d,%v, want 10", block, ok)
	}
	cached[10] = true // prefetched again
	if block, ok := p.Next(0, inCache); !ok || block != 900 {
		t.Fatalf("Next after refill = %d,%v, want 900", block, ok)
	}
	if probes > 4 {
		t.Fatalf("%d cache probes for one hole 890 indices behind the cursor", probes)
	}
}

// TestMonotoneMatchesPlainScan is an oracle for the monotone cursor:
// over random streams of selects (most of them prefetched), demand
// reads, evictions of consumed blocks and demotes of unconsumed ones,
// a monotone policy selects exactly what the plain scan selects. (The
// blocks of a global string are distinct, so equal blocks mean equal
// string positions.)
func TestMonotoneMatchesPlainScan(t *testing.T) {
	for _, kind := range []pattern.Kind{pattern.GW, pattern.GRP, pattern.GFP} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", kind, seed), func(t *testing.T) {
				cfg := pattern.Defaults(kind)
				cfg.TotalBlocks = 400
				pat := pattern.MustGenerate(cfg)
				str := expand(pat, 0)
				mono, plain := newPolicy(pat, 0), newPolicy(pat, 0)
				plain.monotone = false
				cached := map[int]bool{}
				inCache := func(b int) bool { return cached[b] }
				rnd := rand.New(rand.NewSource(seed))
				for step := 0; step < 2000; step++ {
					next := mono.states[0].nextDemand
					switch op := rnd.Intn(10); {
					case op < 5:
						mb, mok := mono.Next(0, inCache)
						pb, pok := plain.Next(0, inCache)
						if mb != pb || mok != pok {
							t.Fatalf("step %d: monotone Next = %d,%v, plain = %d,%v",
								step, mb, mok, pb, pok)
						}
						if mok && rnd.Intn(4) > 0 {
							cached[mb] = true
						}
					case op < 7:
						if next < len(str) {
							mono.Demand(0, next, str[next])
							plain.Demand(0, next, str[next])
							cached[str[next]] = true
						}
					case op < 9:
						if next > 0 {
							delete(cached, str[rnd.Intn(next)])
						}
					default:
						if next < len(str) {
							if b := str[next+rnd.Intn(len(str)-next)]; cached[b] {
								delete(cached, b)
								mono.Demote(b)
								plain.Demote(b)
							}
						}
					}
				}
			})
		}
	}
}

// TestDemoteFindsEveryIndex: a demoted block behind the cursor is
// queued at its string index wherever it sits in a portion, the first
// index of the string and the last of a portion included, and a block
// in a gap between portions, which the string never reads, queues
// nothing.
func TestDemoteFindsEveryIndex(t *testing.T) {
	cfg := pattern.Defaults(pattern.GFP)
	cfg.TotalBlocks = 30 // blocks 0-9, 21-30 and 42-51
	pat := pattern.MustGenerate(cfg)
	str := expand(pat, 0)
	p := newPolicy(pat, 0)
	cached := map[int]bool{}
	for _, b := range str[:25] {
		cached[b] = true
	}
	inCache := func(b int) bool { return cached[b] }
	if block, ok := p.Next(0, inCache); !ok || block != str[25] {
		t.Fatalf("Next = %d,%v, want %d", block, ok, str[25])
	}
	p.Demote(15) // in the gap after portion 0
	if holes := p.states[0].holes; len(holes) != 0 {
		t.Fatalf("demoting a block outside the string queued holes %v", holes)
	}
	for _, idx := range []int{0, 9, 19} { // the string's first index, and two portion ends
		delete(cached, str[idx])
		p.Demote(str[idx])
		if block, ok := p.Next(0, inCache); !ok || block != str[idx] {
			t.Fatalf("Next after demoting index %d = %d,%v, want block %d", idx, block, ok, str[idx])
		}
		cached[str[idx]] = true
	}
	if block, ok := p.Next(0, inCache); !ok || block != str[25] {
		t.Fatalf("Next after the demotes = %d,%v, want %d", block, ok, str[25])
	}
}

// TestLeadWindowOfOneCachedIndex: the lead window is relaxed only once
// it is empty. A window of exactly one index whose block is cached
// yields no candidate, although blocks between the demand position and
// the window are uncached.
func TestLeadWindowOfOneCachedIndex(t *testing.T) {
	p := newPolicy(smallGW(10), 5)
	p.Demand(0, 3, anyBlock) // window [9, 10)
	if block, ok := p.Next(0, cachedSet(9)); ok {
		t.Fatalf("Next = %d with the one-index lead window cached, want no candidate", block)
	}
	p.Demand(0, 4, anyBlock) // window empty: relaxed to [5, 10)
	if block, ok := p.Next(0, cachedSet(9)); !ok || block != 5 {
		t.Fatalf("Next with an empty lead window = %d,%v, want 5", block, ok)
	}
}
