// Package pattern implements the paper's taxonomy of parallel file
// access patterns and generators for the six representative patterns
// embedded in the synthetic workload (§IV-B):
//
//	lfp — local fixed-length portions (regular length and spacing,
//	      different file regions per process)
//	lrp — local random portions (irregular length and spacing; portions
//	      may overlap between processes by coincidence)
//	lw  — local whole file (every process reads the entire file)
//	gfp — global fixed portions (processes cooperate on globally
//	      sequential portions of regular length and spacing)
//	grp — global random portions (cooperating, irregular portions)
//	gw  — global whole file (processes cooperate to read the file
//	      exactly once)
//
// A local pattern is a set of per-process reference strings; a global
// pattern is a single reference string whose accesses are claimed
// dynamically (self-scheduling) by the cooperating processes, so that
// the merged request order is only *roughly* sequential — exactly the
// property the paper highlights.
package pattern

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Kind identifies one of the six access patterns.
type Kind int

// The six representative parallel file access patterns.
const (
	LFP Kind = iota // local fixed-length portions
	LRP             // local random portions
	LW              // local whole file
	GFP             // global fixed portions
	GRP             // global random portions
	GW              // global whole file
)

// HYB is a hybrid pattern: disjoint subsets of the processes each
// follow their own (local) pure pattern over a private region of the
// file — the "variations or combinations of the pure access patterns"
// the paper mentions in §IV-B and expects not to matter much. Built
// with Config.Hybrid.
const HYB Kind = 6

// Kinds lists the paper's six pure patterns, in its order (HYB, the
// extension, is deliberately not included).
var Kinds = []Kind{LFP, LRP, LW, GFP, GRP, GW}

// String returns the paper's abbreviation.
func (k Kind) String() string {
	switch k {
	case LFP:
		return "lfp"
	case LRP:
		return "lrp"
	case LW:
		return "lw"
	case GFP:
		return "gfp"
	case GRP:
		return "grp"
	case GW:
		return "gw"
	case HYB:
		return "hyb"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Parse converts a paper abbreviation ("lfp", "gw", ...) to a Kind.
func Parse(s string) (Kind, error) {
	for _, k := range append(append([]Kind{}, Kinds...), HYB) {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("pattern: unknown kind %q", s)
}

// Local reports whether each process follows its own reference string.
func (k Kind) Local() bool { return k == LFP || k == LRP || k == LW || k == HYB }

// Global reports whether processes cooperate on one reference string.
func (k Kind) Global() bool { return !k.Local() }

// Regular reports whether portion length and spacing are predictable, so
// that a prefetcher may run ahead across portion boundaries. Whole-file
// patterns are trivially regular. Hybrid patterns carry per-process
// regularity (Pattern.LocalRegular) instead.
func (k Kind) Regular() bool { return k != LRP && k != GRP && k != HYB }

// Overlapped reports whether different processes' access sets can
// intersect: always for lw, by coincidence for lrp.
func (k Kind) Overlapped() bool { return k == LW || k == LRP }

// Portion is a run of consecutive file blocks within a reference string.
type Portion struct {
	Index int // reference-string index of the portion's first access
	Start int // first block number
	Len   int // number of blocks
}

// End returns one past the last reference-string index of the portion.
func (p Portion) End() int { return p.Index + p.Len }

// Pattern is a fully generated workload access pattern. Each reference
// string is stored as its portions, in string order: index i of a
// string is block Start + i - Index of the portion that holds it. A
// string takes one Portion per run of consecutive blocks, so a
// whole-file string of any length is one Portion.
type Pattern struct {
	Kind       Kind
	Procs      int
	FileBlocks int

	// LocalPortions, for local patterns, holds each process's string.
	LocalPortions [][]Portion
	// LocalRegular, when non-nil (hybrid patterns), gives per-process
	// regularity, overriding Kind.Regular.
	LocalRegular []bool

	// GlobalPortions, for global patterns, holds the shared string.
	GlobalPortions []Portion
}

// Portions returns the reference string node follows: its own for a
// local pattern, the shared one for a global pattern.
func (p *Pattern) Portions(node int) []Portion {
	if p.Kind.Global() {
		return p.GlobalPortions
	}
	return p.LocalPortions[node]
}

// TotalReads returns the total number of block reads across all
// processes.
func (p *Pattern) TotalReads() int {
	if p.Kind.Global() {
		return Len(p.GlobalPortions)
	}
	n := 0
	for _, portions := range p.LocalPortions {
		n += Len(portions)
	}
	return n
}

// String summarizes the pattern.
func (p *Pattern) String() string {
	return fmt.Sprintf("%s procs=%d file=%d reads=%d", p.Kind, p.Procs, p.FileBlocks, p.TotalReads())
}

// Len returns the length of the reference string made of portions.
func Len(portions []Portion) int {
	if len(portions) == 0 {
		return 0
	}
	return portions[len(portions)-1].End()
}

// BlockAt returns the block at reference-string index idx of the
// string made of portions. It panics if no portion covers idx.
func BlockAt(portions []Portion, idx int) int {
	por := portions[PortionOf(portions, idx)]
	return por.Start + idx - por.Index
}

// PortionOf returns the index within portions of the portion containing
// reference-string index idx. Portions must be sorted by Index and
// cover idx.
func PortionOf(portions []Portion, idx int) int {
	lo, hi := 0, len(portions)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if portions[mid].Index <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if len(portions) == 0 || portions[lo].Index > idx || idx >= portions[lo].End() {
		panic(fmt.Sprintf("pattern: index %d not covered by portions", idx))
	}
	return lo
}

// IndexOf returns the reference-string index at which block is read,
// or -1 if the string does not read it. The portions must be disjoint
// and in increasing block order, as Validate guarantees for a global
// pattern, so that a block is read at most once.
func IndexOf(portions []Portion, block int) int {
	k := sort.Search(len(portions), func(i int) bool { return portions[i].Start > block }) - 1
	if k < 0 || block >= portions[k].Start+portions[k].Len {
		return -1
	}
	return portions[k].Index + block - portions[k].Start
}

// Config parameterizes pattern generation. The zero value is not
// useful; start from Defaults.
type Config struct {
	Kind  Kind
	Procs int

	// BlocksPerProc is the reads per process for local patterns (the
	// paper uses 100 in the main suite and 2000 in the prefetch-lead
	// experiments).
	BlocksPerProc int
	// TotalBlocks is the total reads for global patterns (2000).
	TotalBlocks int

	// Fixed-portion geometry (lfp, gfp).
	PortionLen int
	PortionGap int

	// Random-portion geometry (lrp, grp).
	MinPortion, MaxPortion int
	MinGap, MaxGap         int

	// Seed drives the random-portion patterns.
	Seed uint64

	// Hybrid, for Kind HYB, lists the local sub-patterns: each entry's
	// Procs processes follow that pure pattern over a private region of
	// the file. The entries' Procs must sum to the outer Procs.
	Hybrid []Config
}

// Defaults returns the paper's base configuration (§IV-D) for the given
// pattern kind.
//
// The paper does not specify portion geometry, so two choices are made
// here and documented in DESIGN.md:
//   - The fixed-portion gap is 11 (not 10) so portion starts do not all
//     land on the same subset of the 20 interleaved disks — that would
//     idle half the array, an artifact rather than a phenomenon from the
//     paper.
//   - Global random portions are long relative to the process count
//     (50–150 blocks). Since prefetching never crosses an unestablished
//     portion boundary, global portions much shorter than the 20
//     cooperating processes would force almost every block of a fresh
//     portion to be demand-fetched, contradicting the paper's observed
//     hit ratios (all above 0.69). Local random portions stay short
//     (4–16): a single process re-establishes its own next portion with
//     one demand fetch and prefetches the remainder.
func Defaults(kind Kind) Config {
	cfg := Config{
		Kind:          kind,
		Procs:         20,
		BlocksPerProc: 100,
		TotalBlocks:   2000,
		PortionLen:    10,
		PortionGap:    11,
		MinPortion:    4,
		MaxPortion:    16,
		MinGap:        4,
		MaxGap:        16,
		Seed:          1,
	}
	if kind == GRP {
		cfg.MinPortion, cfg.MaxPortion = 50, 150
		cfg.MinGap, cfg.MaxGap = 5, 50
	}
	return cfg
}

func (c *Config) validate() error {
	if c.Procs <= 0 {
		return fmt.Errorf("pattern: procs must be positive, got %d", c.Procs)
	}
	if c.Kind == HYB {
		if len(c.Hybrid) == 0 {
			return fmt.Errorf("pattern: hybrid needs at least one sub-pattern")
		}
		total, span := 0, 0
		for i := range c.Hybrid {
			sub := c.Hybrid[i]
			if !sub.Kind.Local() || sub.Kind == HYB {
				return fmt.Errorf("pattern: hybrid sub-pattern %d must be a pure local kind, got %v", i, sub.Kind)
			}
			if err := sub.validate(); err != nil {
				return fmt.Errorf("pattern: hybrid sub-pattern %d: %w", i, err)
			}
			total += sub.Procs
			span = mulAdd(1, span, sub.span())
		}
		if total != c.Procs {
			return fmt.Errorf("pattern: hybrid sub-pattern procs sum to %d, outer Procs is %d", total, c.Procs)
		}
		return checkSpan(c.Kind, span)
	}
	if c.Kind.Local() && c.BlocksPerProc <= 0 {
		return fmt.Errorf("pattern: BlocksPerProc must be positive for %s", c.Kind)
	}
	if c.Kind.Global() && c.TotalBlocks <= 0 {
		return fmt.Errorf("pattern: TotalBlocks must be positive for %s", c.Kind)
	}
	switch c.Kind {
	case LFP, GFP:
		if c.PortionLen <= 0 || c.PortionGap < 0 {
			return fmt.Errorf("pattern: bad fixed-portion geometry len=%d gap=%d", c.PortionLen, c.PortionGap)
		}
	case LRP, GRP:
		// Lengths and gaps are drawn from ranges rng.IntRange takes in
		// 32 bits, and none can pass a file's math.MaxInt32 blocks.
		if c.MinPortion <= 0 || c.MaxPortion < c.MinPortion || c.MinGap < 0 || c.MaxGap < c.MinGap ||
			c.MaxPortion > math.MaxInt32 || c.MaxGap > math.MaxInt32 {
			return fmt.Errorf("pattern: bad random-portion geometry")
		}
	}
	return checkSpan(c.Kind, c.span())
}

// checkSpan refuses a file of span blocks past math.MaxInt32: block
// ids are int32 downstream (the cache keys its frames by them).
func checkSpan(kind Kind, span int) error {
	if span > math.MaxInt32 {
		return fmt.Errorf("pattern: %s file spans more than %d block ids", kind, math.MaxInt32)
	}
	return nil
}

// mulAdd returns a·b + c for non-negative operands, or math.MaxInt32+1
// when that is larger, so that no geometry can wrap int.
func mulAdd(a, b, c int) int {
	if c > math.MaxInt32 || b > 0 && a > (math.MaxInt32-c)/b {
		return math.MaxInt32 + 1
	}
	return a*b + c
}

// span returns the blocks a pure pattern's file spans, capped by
// mulAdd. A grp file's gaps are drawn, so its span here counts only
// the reads and genGRP checks the rest as it lays portions out.
func (c *Config) span() int {
	fixed := func(reads int) int { return mulAdd(max(reads/c.PortionLen, 1), c.PortionGap, reads) }
	switch c.Kind {
	case LFP:
		return mulAdd(c.Procs, fixed(c.BlocksPerProc), 0)
	case GFP:
		return fixed(c.TotalBlocks)
	case LRP:
		return mulAdd(2, mulAdd(c.Procs, c.BlocksPerProc, 0), 0)
	case LW:
		return c.BlocksPerProc
	}
	return c.TotalBlocks
}

// Generate builds the reference strings, as portions, for the
// configured pattern; a file past math.MaxInt32 blocks is an error.
func Generate(cfg Config) (*Pattern, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	switch cfg.Kind {
	case HYB:
		return genHybrid(cfg)
	case LFP:
		return genLFP(cfg), nil
	case LRP:
		return genLRP(cfg), nil
	case LW:
		return genLW(cfg), nil
	case GFP:
		return genGFP(cfg), nil
	case GRP:
		return genGRP(cfg)
	case GW:
		return genGW(cfg), nil
	}
	return nil, fmt.Errorf("pattern: unknown kind %v", cfg.Kind)
}

// MustGenerate is Generate for static configurations known to be valid.
func MustGenerate(cfg Config) *Pattern {
	p, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// fixedCount is how many portions fixedPortions lays out for reads.
func fixedCount(cfg Config, reads int) int { return max(reads/cfg.PortionLen, 1) }

// fixedPortions lays out a string of reads accesses into portions, which
// has fixedCount's length, as runs of PortionLen blocks from block base,
// each run followed by a gap of PortionGap blocks; the last run takes
// the remainder. It returns the file blocks they span, the trailing gap
// included.
func fixedPortions(cfg Config, portions []Portion, reads, base int) int {
	for i := range portions {
		portions[i] = Portion{Index: i * cfg.PortionLen, Start: base + i*(cfg.PortionLen+cfg.PortionGap), Len: cfg.PortionLen}
	}
	last := &portions[len(portions)-1]
	last.Len = reads - last.Index
	return last.Start + last.Len + cfg.PortionGap - base
}

// The local generators hand each process a window of one slab per
// pattern, cut with a full slice expression, so no append to one
// process's string can overwrite its neighbour's.

// genLFP places, for each process, BlocksPerProc/PortionLen portions of
// PortionLen blocks separated by PortionGap, in a private region of the
// file ("at different places in the file for each process").
func genLFP(cfg Config) *Pattern {
	p := &Pattern{Kind: LFP, Procs: cfg.Procs, LocalPortions: make([][]Portion, cfg.Procs)}
	n := fixedCount(cfg, cfg.BlocksPerProc)
	slab := make([]Portion, cfg.Procs*n)
	span := 0
	for proc := range p.LocalPortions {
		// Every region spans the same blocks, so process 0's span
		// places the others.
		p.LocalPortions[proc] = slab[proc*n : (proc+1)*n : (proc+1)*n]
		span = fixedPortions(cfg, p.LocalPortions[proc], cfg.BlocksPerProc, proc*span)
	}
	p.FileBlocks = cfg.Procs * span
	return p
}

// genLRP gives each process portions of random length and spacing
// starting from a random offset; regions from different processes may
// overlap by coincidence.
func genLRP(cfg Config) *Pattern {
	// File is sized so ~half the blocks are read in aggregate, matching
	// the expected density of the fixed-portion patterns.
	file := 2 * cfg.Procs * cfg.BlocksPerProc
	r := rng.New(cfg.Seed, 101)
	p := &Pattern{Kind: LRP, Procs: cfg.Procs, FileBlocks: file, LocalPortions: make([][]Portion, cfg.Procs)}
	// Each process's portions are appended to one slab and cut from it
	// once the slab stops moving; ends[proc] is where its string ends.
	var slab []Portion
	ends := make([]int, cfg.Procs)
	for proc := range p.LocalPortions {
		cursor := r.Intn(file)
		for n := 0; n < cfg.BlocksPerProc; {
			plen := r.IntRange(cfg.MinPortion, cfg.MaxPortion)
			if rem := cfg.BlocksPerProc - n; plen > rem {
				plen = rem
			}
			if cursor+plen > file { // keep portions contiguous in the file
				cursor = 0
			}
			slab = append(slab, Portion{Index: n, Start: cursor, Len: plen})
			n += plen
			cursor += plen + r.IntRange(cfg.MinGap, cfg.MaxGap)
			if cursor >= file {
				cursor -= file
			}
		}
		ends[proc] = len(slab)
	}
	start := 0
	for proc, end := range ends {
		p.LocalPortions[proc] = slab[start:end:end]
		start = end
	}
	return p
}

// genLW has every process read the entire file, which is BlocksPerProc
// blocks long (paper: 100-block file, 20 processes, 2000 total reads).
func genLW(cfg Config) *Pattern {
	p := &Pattern{Kind: LW, Procs: cfg.Procs, FileBlocks: cfg.BlocksPerProc, LocalPortions: make([][]Portion, cfg.Procs)}
	slab := make([]Portion, cfg.Procs)
	for proc := range p.LocalPortions {
		slab[proc] = Portion{Index: 0, Start: 0, Len: cfg.BlocksPerProc}
		p.LocalPortions[proc] = slab[proc : proc+1 : proc+1]
	}
	return p
}

// genGFP tiles the file with global portions of fixed length and gap.
func genGFP(cfg Config) *Pattern {
	p := &Pattern{Kind: GFP, Procs: cfg.Procs, GlobalPortions: make([]Portion, fixedCount(cfg, cfg.TotalBlocks))}
	p.FileBlocks = fixedPortions(cfg, p.GlobalPortions, cfg.TotalBlocks, 0)
	return p
}

// genGRP builds one global string of randomly sized and spaced portions.
func genGRP(cfg Config) (*Pattern, error) {
	r := rng.New(cfg.Seed, 202)
	p := &Pattern{Kind: GRP, Procs: cfg.Procs}
	cursor := 0
	for n := 0; n < cfg.TotalBlocks; {
		plen := r.IntRange(cfg.MinPortion, cfg.MaxPortion)
		if rem := cfg.TotalBlocks - n; plen > rem {
			plen = rem
		}
		p.GlobalPortions = append(p.GlobalPortions, Portion{Index: n, Start: cursor, Len: plen})
		n += plen
		cursor += plen + r.IntRange(cfg.MinGap, cfg.MaxGap)
		if err := checkSpan(GRP, cursor); err != nil {
			return nil, err
		}
	}
	p.FileBlocks = cursor
	return p, nil
}

// genGW reads the whole file exactly once, cooperatively.
func genGW(cfg Config) *Pattern {
	return &Pattern{
		Kind:           GW,
		Procs:          cfg.Procs,
		FileBlocks:     cfg.TotalBlocks,
		GlobalPortions: []Portion{{Index: 0, Start: 0, Len: cfg.TotalBlocks}},
	}
}

// genHybrid concatenates local sub-patterns: each sub-pattern's
// processes are appended, with the sub-pattern's file region shifted
// past the previous ones.
func genHybrid(cfg Config) (*Pattern, error) {
	p := &Pattern{Kind: HYB, Procs: cfg.Procs}
	fileBase := 0
	for i := range cfg.Hybrid {
		sub := cfg.Hybrid[i]
		sub.Seed = cfg.Seed + uint64(i)
		sp, err := Generate(sub)
		if err != nil {
			return nil, err
		}
		for _, portions := range sp.LocalPortions {
			for j := range portions {
				portions[j].Start += fileBase
			}
			p.LocalPortions = append(p.LocalPortions, portions)
			p.LocalRegular = append(p.LocalRegular, sub.Kind.Regular())
		}
		fileBase += sp.FileBlocks
	}
	p.FileBlocks = fileBase
	return p, nil
}

// RegularFor reports whether process `proc`'s accesses are regular
// (predictable portion geometry), honouring per-process overrides.
func (p *Pattern) RegularFor(proc int) bool {
	if p.LocalRegular != nil {
		return p.LocalRegular[proc]
	}
	return p.Kind.Regular()
}

// Validate checks the internal consistency of a generated pattern in
// time proportional to its portions: each string's portions tile it
// (each starts at the running string length and is non-empty) and lie
// inside the file, and a global string's portions are disjoint and in
// increasing block order, so that IndexOf can find a block's index.
func (p *Pattern) Validate() error {
	checkString := func(portions []Portion, ordered bool) error {
		covered := 0
		for i, por := range portions {
			if por.Index != covered {
				return fmt.Errorf("portion %d starts at index %d, want %d", i, por.Index, covered)
			}
			if por.Len <= 0 {
				return fmt.Errorf("portion %d has length %d", i, por.Len)
			}
			if por.Start < 0 || por.Start+por.Len > p.FileBlocks {
				return fmt.Errorf("portion %d reads blocks [%d, %d) outside file of %d blocks",
					i, por.Start, por.Start+por.Len, p.FileBlocks)
			}
			if prev := i - 1; ordered && prev >= 0 && por.Start < portions[prev].Start+portions[prev].Len {
				return fmt.Errorf("portion %d at block %d overlaps or precedes portion %d", i, por.Start, prev)
			}
			covered += por.Len
		}
		return nil
	}
	if p.Kind.Local() {
		if len(p.LocalPortions) != p.Procs {
			return fmt.Errorf("pattern: %d local strings for %d procs", len(p.LocalPortions), p.Procs)
		}
		for proc, portions := range p.LocalPortions {
			if err := checkString(portions, false); err != nil {
				return fmt.Errorf("proc %d: %w", proc, err)
			}
		}
		return nil
	}
	return checkString(p.GlobalPortions, true)
}
