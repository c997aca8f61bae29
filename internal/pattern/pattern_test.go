package pattern

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindStringAndParse(t *testing.T) {
	for _, k := range Kinds {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Fatalf("Parse(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatal("Parse accepted bogus kind")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k                          Kind
		local, regular, overlapped bool
	}{
		{LFP, true, true, false},
		{LRP, true, false, true},
		{LW, true, true, true},
		{GFP, false, true, false},
		{GRP, false, false, false},
		{GW, false, true, false},
	}
	for _, c := range cases {
		if c.k.Local() != c.local || c.k.Global() == c.local {
			t.Errorf("%v: Local=%v Global=%v", c.k, c.k.Local(), c.k.Global())
		}
		if c.k.Regular() != c.regular {
			t.Errorf("%v: Regular=%v, want %v", c.k, c.k.Regular(), c.regular)
		}
		if c.k.Overlapped() != c.overlapped {
			t.Errorf("%v: Overlapped=%v, want %v", c.k, c.k.Overlapped(), c.overlapped)
		}
	}
}

func TestAllDefaultsValidate(t *testing.T) {
	for _, k := range Kinds {
		p, err := Generate(Defaults(k))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: invalid pattern: %v", k, err)
		}
		if p.TotalReads() != 2000 {
			t.Fatalf("%v: total reads = %d, want 2000", k, p.TotalReads())
		}
		if !strings.Contains(p.String(), k.String()) {
			t.Fatalf("%v: String = %q", k, p.String())
		}
	}
}

func TestLFPGeometry(t *testing.T) {
	p := MustGenerate(Defaults(LFP))
	if len(p.LocalPortions) != 20 {
		t.Fatalf("procs = %d", len(p.LocalPortions))
	}
	for proc, portions := range p.LocalPortions {
		if len(portions) != 10 { // 100 blocks / 10 per portion
			t.Fatalf("proc %d has %d portions", proc, len(portions))
		}
		for i := 1; i < len(portions); i++ {
			gap := portions[i].Start - (portions[i-1].Start + portions[i-1].Len)
			if gap != 11 {
				t.Fatalf("proc %d portion %d gap = %d", proc, i, gap)
			}
		}
	}
	// Regions are disjoint across processes.
	seen := map[int]int{}
	for proc := 0; proc < p.Procs; proc++ {
		for _, b := range expand(p, proc) {
			if prev, ok := seen[b]; ok {
				t.Fatalf("block %d read by procs %d and %d", b, prev, proc)
			}
			seen[b] = proc
		}
	}
}

func TestLRPProperties(t *testing.T) {
	p := MustGenerate(Defaults(LRP))
	for proc := 0; proc < p.Procs; proc++ {
		if n := Len(p.Portions(proc)); n != 100 {
			t.Fatalf("proc %d reads %d blocks", proc, n)
		}
	}
	// Portion lengths within configured bounds (except possibly the
	// final, clipped portion of each proc).
	cfg := Defaults(LRP)
	for proc, portions := range p.LocalPortions {
		for i, por := range portions {
			if por.Len > cfg.MaxPortion {
				t.Fatalf("proc %d portion %d len %d > max", proc, i, por.Len)
			}
			if i < len(portions)-1 && por.Len < cfg.MinPortion {
				t.Fatalf("proc %d portion %d len %d < min", proc, i, por.Len)
			}
		}
	}
}

func TestLRPDeterministicBySeed(t *testing.T) {
	a := MustGenerate(Defaults(LRP))
	b := MustGenerate(Defaults(LRP))
	for proc := 0; proc < a.Procs; proc++ {
		if !slices.Equal(expand(a, proc), expand(b, proc)) {
			t.Fatal("same seed produced different lrp patterns")
		}
	}
	cfg := Defaults(LRP)
	cfg.Seed = 2
	c := MustGenerate(cfg)
	diff := false
	for proc := 0; proc < a.Procs; proc++ {
		if !slices.Equal(expand(a, proc), expand(c, proc)) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical lrp patterns")
	}
}

func TestLWGeometry(t *testing.T) {
	p := MustGenerate(Defaults(LW))
	if p.FileBlocks != 100 {
		t.Fatalf("lw file = %d blocks, want 100", p.FileBlocks)
	}
	for proc := 0; proc < p.Procs; proc++ {
		str := expand(p, proc)
		if len(str) != 100 {
			t.Fatalf("proc %d reads %d", proc, len(str))
		}
		for i, b := range str {
			if b != i {
				t.Fatalf("proc %d read %d is block %d", proc, i, b)
			}
		}
	}
}

func TestGFPGeometry(t *testing.T) {
	p := MustGenerate(Defaults(GFP))
	if p.TotalReads() != 2000 {
		t.Fatalf("global reads = %d", p.TotalReads())
	}
	if len(p.GlobalPortions) != 200 {
		t.Fatalf("portions = %d, want 200", len(p.GlobalPortions))
	}
	for i := 1; i < len(p.GlobalPortions); i++ {
		gap := p.GlobalPortions[i].Start - (p.GlobalPortions[i-1].Start + p.GlobalPortions[i-1].Len)
		if gap != 11 {
			t.Fatalf("portion %d gap = %d", i, gap)
		}
	}
	if p.FileBlocks != 4200 {
		t.Fatalf("gfp file = %d, want 4200", p.FileBlocks)
	}
}

func TestGRPProperties(t *testing.T) {
	p := MustGenerate(Defaults(GRP))
	if p.TotalReads() != 2000 {
		t.Fatalf("global reads = %d", p.TotalReads())
	}
	// Portions are strictly increasing and non-overlapping.
	for i := 1; i < len(p.GlobalPortions); i++ {
		prev, cur := p.GlobalPortions[i-1], p.GlobalPortions[i]
		if cur.Start < prev.Start+prev.Len {
			t.Fatalf("portion %d overlaps previous", i)
		}
	}
}

func TestGWGeometry(t *testing.T) {
	p := MustGenerate(Defaults(GW))
	if p.FileBlocks != 2000 || p.TotalReads() != 2000 {
		t.Fatalf("gw file=%d reads=%d", p.FileBlocks, p.TotalReads())
	}
	for i, b := range expand(p, 0) {
		if b != i {
			t.Fatalf("gw read %d is block %d", i, b)
		}
	}
	if len(p.GlobalPortions) != 1 {
		t.Fatalf("gw portions = %d", len(p.GlobalPortions))
	}
}

func TestPortionOf(t *testing.T) {
	portions := []Portion{
		{Index: 0, Start: 0, Len: 10},
		{Index: 10, Start: 20, Len: 5},
		{Index: 15, Start: 40, Len: 10},
	}
	cases := []struct{ idx, want int }{{0, 0}, {9, 0}, {10, 1}, {14, 1}, {15, 2}, {24, 2}}
	for _, c := range cases {
		if got := PortionOf(portions, c.idx); got != c.want {
			t.Fatalf("PortionOf(%d) = %d, want %d", c.idx, got, c.want)
		}
	}
}

func TestPortionOfPanicsOutOfRange(t *testing.T) {
	portions := []Portion{{Index: 0, Start: 0, Len: 5}}
	defer func() {
		if recover() == nil {
			t.Fatal("PortionOf(5) did not panic")
		}
	}()
	PortionOf(portions, 5)
}

func TestPortionEnd(t *testing.T) {
	p := Portion{Index: 10, Start: 50, Len: 5}
	if p.End() != 15 {
		t.Fatalf("End = %d", p.End())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Kind: LFP, Procs: 0, BlocksPerProc: 10, PortionLen: 5},
		{Kind: LFP, Procs: 2, BlocksPerProc: 0, PortionLen: 5},
		{Kind: GW, Procs: 2, TotalBlocks: 0},
		{Kind: LFP, Procs: 2, BlocksPerProc: 10, PortionLen: 0},
		{Kind: LRP, Procs: 2, BlocksPerProc: 10, MinPortion: 0, MaxPortion: 5, MinGap: 1, MaxGap: 2},
		{Kind: GRP, Procs: 2, TotalBlocks: 10, MinPortion: 5, MaxPortion: 4, MinGap: 1, MaxGap: 2},
		// Draws past 32 bits: gaps that wrap the cursor past the int
		// range, and a range rng.IntRange would truncate to one value.
		{Kind: LRP, Procs: 2, BlocksPerProc: 10, MinPortion: 4, MaxPortion: 16, MinGap: math.MaxInt - 1, MaxGap: math.MaxInt - 1},
		{Kind: GRP, Procs: 2, TotalBlocks: 10, MinPortion: 4, MaxPortion: 16, MinGap: 0, MaxGap: 1 << 32},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}

	// A geometry whose file would pass math.MaxInt32 blocks is an error
	// naming block ids, also when its span wraps int: lfp's
	// 4 × (8 + 2^62) blocks is 32 modulo 2^64, and 4 × (8 + 2^61) is
	// negative.
	geometry := func(kind Kind, edit func(*Config)) Config {
		cfg := Defaults(kind)
		cfg.Procs, cfg.BlocksPerProc, cfg.TotalBlocks = 4, 8, 100
		edit(&cfg)
		return cfg
	}
	lw := geometry(LW, func(c *Config) { c.Procs, c.BlocksPerProc = 1, math.MaxInt32 })
	cases := map[string]Config{
		"lfp gap 2^62":         geometry(LFP, func(c *Config) { c.PortionGap = 1 << 62 }),
		"lfp gap 2^61":         geometry(LFP, func(c *Config) { c.PortionGap = 1 << 61 }),
		"gfp gap 2^60":         geometry(GFP, func(c *Config) { c.PortionGap = 1 << 60 }),
		"lrp 2^31 reads":       geometry(LRP, func(c *Config) { c.Procs, c.BlocksPerProc = 2, 1<<30 }),
		"lw 2^31 blocks":       geometry(LW, func(c *Config) { c.BlocksPerProc = 1 << 31 }),
		"gw 2^31 blocks":       geometry(GW, func(c *Config) { c.TotalBlocks = 1 << 31 }),
		"grp gaps 2^30":        geometry(GRP, func(c *Config) { c.MinPortion, c.MaxPortion, c.MinGap, c.MaxGap = 10, 10, 1<<30, 1<<30 }),
		"hybrid of two MaxInt": {Kind: HYB, Procs: 2, Hybrid: []Config{lw, lw}},
	}
	for name, cfg := range cases {
		if p, err := Generate(cfg); err == nil || !strings.Contains(err.Error(), "block ids") {
			t.Errorf("%s: Generate = %v, %v; want an error naming block ids", name, p, err)
		}
	}
	if _, err := Generate(lw); err != nil {
		t.Errorf("lw of MaxInt32 blocks: %v", err)
	}
}

func TestMustGeneratePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate did not panic")
		}
	}()
	MustGenerate(Config{Kind: GW})
}

// Property: generated patterns validate across a range of sizes and
// seeds, and read counts are exact.
func TestGenerateProperty(t *testing.T) {
	check := func(seed uint64, kindRaw, procsRaw, sizeRaw uint8) bool {
		kind := Kinds[int(kindRaw)%len(Kinds)]
		cfg := Defaults(kind)
		cfg.Seed = seed
		cfg.Procs = int(procsRaw%8) + 1
		if kind.Local() {
			cfg.BlocksPerProc = int(sizeRaw%60) + 20
		} else {
			cfg.TotalBlocks = int(sizeRaw)%300 + 50
		}
		p, err := Generate(cfg)
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		want := cfg.TotalBlocks
		if kind.Local() {
			want = cfg.Procs * cfg.BlocksPerProc
		}
		return p.TotalReads() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func hybridConfig(procs int) Config {
	lfp := Defaults(LFP)
	lfp.Procs = procs / 2
	lw := Defaults(LW)
	lw.Procs = procs - procs/2
	lw.BlocksPerProc = 100
	return Config{Kind: HYB, Procs: procs, Hybrid: []Config{lfp, lw}, Seed: 1}
}

func TestHybridGeneration(t *testing.T) {
	p, err := Generate(hybridConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("hybrid invalid: %v", err)
	}
	if p.Kind != HYB || !p.Kind.Local() || p.Kind.Regular() {
		t.Fatal("hybrid kind predicates wrong")
	}
	if len(p.LocalPortions) != 8 || len(p.LocalRegular) != 8 {
		t.Fatalf("procs = %d regular = %d", len(p.LocalPortions), len(p.LocalRegular))
	}
	// First half follows lfp (regular), second half lw (regular too) —
	// use lrp to see an irregular flag.
	for proc := 0; proc < 8; proc++ {
		if !p.RegularFor(proc) {
			t.Fatalf("proc %d should be regular", proc)
		}
	}
	// Regions are disjoint: lfp procs stay below the lw base.
	lfpMax, lwMin := -1, p.FileBlocks
	for proc := 0; proc < 4; proc++ {
		for _, b := range expand(p, proc) {
			if b > lfpMax {
				lfpMax = b
			}
		}
	}
	for proc := 4; proc < 8; proc++ {
		for _, b := range expand(p, proc) {
			if b < lwMin {
				lwMin = b
			}
		}
	}
	if lfpMax >= lwMin {
		t.Fatalf("hybrid regions overlap: lfp max %d, lw min %d", lfpMax, lwMin)
	}
}

func TestHybridIrregularFlags(t *testing.T) {
	lrp := Defaults(LRP)
	lrp.Procs = 2
	lw := Defaults(LW)
	lw.Procs = 2
	p := MustGenerate(Config{Kind: HYB, Procs: 4, Hybrid: []Config{lrp, lw}, Seed: 1})
	if p.RegularFor(0) || p.RegularFor(1) {
		t.Fatal("lrp procs should be irregular")
	}
	if !p.RegularFor(2) || !p.RegularFor(3) {
		t.Fatal("lw procs should be regular")
	}
}

func TestHybridValidation(t *testing.T) {
	bad := []Config{
		{Kind: HYB, Procs: 4},
		{Kind: HYB, Procs: 4, Hybrid: []Config{Defaults(GW)}},
		func() Config {
			c := hybridConfig(8)
			c.Procs = 9 // sum mismatch
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad hybrid %d accepted", i)
		}
	}
	if _, err := Parse("hyb"); err != nil {
		t.Fatal("Parse should accept hyb")
	}
}

// TestPortionAccessors checks Len, BlockAt and IndexOf against every
// pinned string written out from its portions.
func TestPortionAccessors(t *testing.T) {
	for _, cfg := range pinPatterns() {
		p := MustGenerate(cfg)
		nStrings := 1
		if p.Kind.Local() {
			nStrings = p.Procs
		}
		for node := 0; node < nStrings; node++ {
			portions, str := p.Portions(node), expand(p, node)
			if Len(portions) != len(str) {
				t.Fatalf("%v node %d: Len = %d, want %d", p.Kind, node, Len(portions), len(str))
			}
			for i, b := range str {
				if got := BlockAt(portions, i); got != b {
					t.Fatalf("%v node %d: BlockAt(%d) = %d, want %d", p.Kind, node, i, got, b)
				}
			}
			if p.Kind.Local() {
				continue
			}
			at := make([]int, p.FileBlocks)
			for b := range at {
				at[b] = -1
			}
			for i, b := range str {
				at[b] = i
			}
			for b := -1; b <= p.FileBlocks; b++ {
				want := -1
				if b >= 0 && b < p.FileBlocks {
					want = at[b]
				}
				if got := IndexOf(portions, b); got != want {
					t.Fatalf("%v: IndexOf(%d) = %d, want %d", p.Kind, b, got, want)
				}
			}
		}
	}
	if Len(nil) != 0 || IndexOf(nil, 0) != -1 {
		t.Fatal("an empty string has length 0 and reads no block")
	}
}

// TestValidateRejects: Validate refuses portions that do not tile their
// string, leave the file, or, in a global string, overlap or descend.
func TestValidateRejects(t *testing.T) {
	global := func(portions ...Portion) *Pattern {
		return &Pattern{Kind: GFP, Procs: 2, FileBlocks: 100, GlobalPortions: portions}
	}
	local := func(portions ...Portion) *Pattern {
		return &Pattern{Kind: LRP, Procs: 1, FileBlocks: 100, LocalPortions: [][]Portion{portions}}
	}
	cases := []struct {
		name string
		p    *Pattern
		want string
	}{
		{"gap in index", global(Portion{0, 0, 5}, Portion{6, 10, 5}), "starts at index 6, want 5"},
		{"first index not 0", local(Portion{1, 0, 5}), "starts at index 1, want 0"},
		{"empty portion", global(Portion{0, 0, 5}, Portion{5, 10, 0}), "has length 0"},
		{"negative length", local(Portion{0, 10, -2}), "has length -2"},
		{"past the file", global(Portion{0, 98, 5}), "outside file of 100 blocks"},
		{"before the file", local(Portion{0, -1, 5}), "outside file of 100 blocks"},
		{"overlapping global", global(Portion{0, 0, 10}, Portion{10, 9, 5}), "overlaps or precedes portion 0"},
		{"descending global", global(Portion{0, 50, 10}, Portion{10, 20, 5}), "overlaps or precedes portion 0"},
		{"string count", &Pattern{Kind: LW, Procs: 2, FileBlocks: 10, LocalPortions: [][]Portion{{{0, 0, 10}}}}, "1 local strings for 2 procs"},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// A local string may revisit and descend: lrp wraps around the file
	// and lw's processes all read the same blocks.
	if err := local(Portion{0, 50, 10}, Portion{10, 20, 5}, Portion{15, 55, 5}).Validate(); err != nil {
		t.Errorf("descending local portions: %v", err)
	}
}
