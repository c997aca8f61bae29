package prefetch

import (
	"testing"
	"testing/quick"

	"repro/internal/pattern"
)

// predictor builds an on-the-fly predictor for nodes processes reading
// a file of fileBlocks blocks; predictors read nothing else of the
// pattern. Predictors ignore the string index, so the tests below pass
// -1 to Demand, as a takeover read does.
func predictor(kind Kind, nodes, fileBlocks int) Source {
	return New(kind, &pattern.Pattern{Procs: nodes, FileBlocks: fileBlocks}, 0)
}

func TestKindStringAndParse(t *testing.T) {
	for _, k := range []Kind{Oracle, OBL, SEQ, GAPS} {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Fatalf("Parse(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := Parse("nope"); err == nil {
		t.Fatal("Parse accepted unknown name")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should format")
	}
}

func TestNewPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { New(OBL, &pattern.Pattern{Procs: 2, FileBlocks: 10}, 1) }, // a lead needs the oracle
		func() { predictor(Kind(9), 2, 10) },
		func() { predictor(OBL, 0, 10) },
		func() { predictor(OBL, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestOBLBasic(t *testing.T) {
	p := predictor(OBL, 2, 100)
	if _, ok := p.Next(0, noneCached); ok {
		t.Fatal("OBL predicted before any demand")
	}
	p.Demand(0, -1, 10)
	b, ok := p.Next(0, noneCached)
	if !ok || b != 11 {
		t.Fatalf("Predict = %d,%v, want 11", b, ok)
	}
	// Per-node state.
	if _, ok := p.Next(1, noneCached); ok {
		t.Fatal("OBL leaked state across nodes")
	}
	// Cached successor: nothing to do.
	if _, ok := p.Next(0, cachedSet(11)); ok {
		t.Fatal("OBL predicted a cached block")
	}
	// End of file.
	p.Demand(0, -1, 99)
	if _, ok := p.Next(0, noneCached); ok {
		t.Fatal("OBL predicted past end of file")
	}
}

func TestSEQRunAdaptation(t *testing.T) {
	p := predictor(SEQ, 1, 1000).(*seq)
	// One access: window of 1.
	p.Demand(0, -1, 5)
	if b, ok := p.Next(0, noneCached); !ok || b != 6 {
		t.Fatalf("after one access: %d,%v", b, ok)
	}
	// Window 1 means a cached immediate successor blocks prediction.
	if _, ok := p.Next(0, cachedSet(6)); ok {
		t.Fatal("window-1 SEQ should not skip ahead")
	}
	// Grow the run: window expands, cached blocks are skipped.
	for b := 6; b <= 10; b++ {
		p.Demand(0, -1, b)
	}
	if b, ok := p.Next(0, cachedSet(11, 12)); !ok || b != 13 {
		t.Fatalf("grown window: %d,%v, want 13", b, ok)
	}
	// Cap.
	for b := 11; b <= 40; b++ {
		p.Demand(0, -1, b)
	}
	cached := make([]int, seqMaxAhead)
	for i := range cached {
		cached[i] = 41 + i
	}
	if _, ok := p.Next(0, cachedSet(cached...)); ok {
		t.Fatal("SEQ exceeded its ahead cap")
	}
	// A jump resets the run.
	p.Demand(0, -1, 500)
	if p.run[0] != 1 {
		t.Fatalf("run after jump = %d", p.run[0])
	}
}

func TestSEQEndOfFile(t *testing.T) {
	p := predictor(SEQ, 1, 10)
	p.Demand(0, -1, 9)
	if _, ok := p.Next(0, noneCached); ok {
		t.Fatal("SEQ predicted past end of file")
	}
}

func TestGAPSConfidence(t *testing.T) {
	p := predictor(GAPS, 4, 1000)
	// Not confident before enough near-frontier observations.
	p.Demand(0, -1, 0)
	if _, ok := p.Next(0, noneCached); ok {
		t.Fatal("GAPS predicted without confidence")
	}
	// A globally sequential stream (claims near the frontier) builds
	// confidence.
	for b := 1; b <= 10; b++ {
		p.Demand(b%4, -1, b)
	}
	b, ok := p.Next(0, noneCached)
	if !ok || b != 11 {
		t.Fatalf("confident GAPS: %d,%v, want 11", b, ok)
	}
	// Any node may use the global prediction.
	if b, ok := p.Next(3, cachedSet(11)); !ok || b != 12 {
		t.Fatalf("GAPS skip-cached: %d,%v, want 12", b, ok)
	}
}

func TestGAPSLosesConfidenceOnRandomStream(t *testing.T) {
	p := predictor(GAPS, 4, 100000).(*gaps)
	// Build confidence first.
	for b := 1; b <= 20; b++ {
		p.Demand(0, -1, b)
	}
	if p.seqScore < gapsConfidence {
		t.Fatalf("score %d after sequential stream", p.seqScore)
	}
	// Far-flung accesses tear it down twice as fast as it builds.
	for i := 0; i < 20; i++ {
		p.Demand(0, -1, 50000+i*1000)
	}
	if _, ok := p.Next(0, noneCached); ok {
		t.Fatal("GAPS stayed confident on a random stream")
	}
	if p.seqScore != 0 {
		t.Fatalf("score = %d after random stream", p.seqScore)
	}
}

func TestGAPSEndOfFile(t *testing.T) {
	p := predictor(GAPS, 2, 30)
	for b := 0; b < 30; b++ {
		p.Demand(b%2, -1, b)
	}
	if _, ok := p.Next(0, noneCached); ok {
		t.Fatal("GAPS predicted past end of file")
	}
}

// Property: no predictor ever proposes an out-of-range or cached block,
// under arbitrary demand streams.
func TestPredictionsAlwaysValid(t *testing.T) {
	check := func(kindRaw uint8, demands []uint16) bool {
		kind := Kinds[int(kindRaw)%len(Kinds)]
		const file = 512
		p := predictor(kind, 4, file)
		cached := map[int]bool{}
		inCache := func(b int) bool { return cached[b] }
		for i, d := range demands {
			block := int(d) % file
			node := i % 4
			p.Demand(node, -1, block)
			cached[block] = true
			if b, ok := p.Next(node, inCache); ok {
				if b < 0 || b >= file || cached[b] {
					return false
				}
				cached[b] = true // as if prefetched
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
