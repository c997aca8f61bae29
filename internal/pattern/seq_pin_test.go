package pattern

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"
)

// seqPinDigest pins every generator's output: for each pattern in the
// set below, its kind, process count and file size, and for each
// reference string its portions and the block sequence they expand to.
// It was generated while the generators still emitted every string
// expanded, block by block, so it shows that the portions alone
// describe the same strings.
const seqPinDigest = "f556d0f749c18ab41f9e41946686e50d5cfbea93533a5e0f5c8f206155743848"

// pinPatterns is the pinned set: the six kinds at their defaults over
// seeds and process counts, the prefetch-lead study's local strings, a
// hybrid of a fixed and a random local sub-pattern, and a global
// whole-file string the size of a 4,000-node cluster cell.
func pinPatterns() []Config {
	var cfgs []Config
	for _, kind := range Kinds {
		for _, seed := range []uint64{1, 2, 7} {
			for _, procs := range []int{3, 8, 20} {
				cfg := Defaults(kind)
				cfg.Seed, cfg.Procs = seed, procs
				cfgs = append(cfgs, cfg)
			}
		}
	}
	for _, kind := range []Kind{LFP, LW} {
		cfg := Defaults(kind)
		cfg.BlocksPerProc = 2000
		cfgs = append(cfgs, cfg)
	}
	hyb := Config{Kind: HYB, Procs: 8, Seed: 3}
	lfp, lrp := Defaults(LFP), Defaults(LRP)
	lfp.Procs, lrp.Procs = 3, 5
	hyb.Hybrid = []Config{lfp, lrp}
	cfgs = append(cfgs, hyb)
	gw := Defaults(GW)
	gw.Procs, gw.TotalBlocks = 4000, 64000
	return append(cfgs, gw)
}

// hashPattern writes one pattern's description into h.
func hashPattern(h hash.Hash, p *Pattern) {
	fmt.Fprintf(h, "%v %d %d\n", p.Kind, p.Procs, p.FileBlocks)
	nStrings := 1
	if p.Kind.Local() {
		nStrings = p.Procs
	}
	for node := 0; node < nStrings; node++ {
		fmt.Fprintf(h, "string %d: %v\n", node, p.Portions(node))
		for _, b := range expand(p, node) {
			fmt.Fprintf(h, "%d,", b)
		}
		fmt.Fprintln(h)
	}
}

func TestSequencePinned(t *testing.T) {
	h := sha256.New()
	for _, cfg := range pinPatterns() {
		p, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Kind, err)
		}
		hashPattern(h, p)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != seqPinDigest {
		t.Fatalf("sequence digest = %s, want %s", got, seqPinDigest)
	}
}

// expand returns the block sequence of node's reference string,
// written out from its portions.
func expand(p *Pattern, node int) []int {
	var str []int
	for _, por := range p.Portions(node) {
		for b := por.Start; b < por.Start+por.Len; b++ {
			str = append(str, b)
		}
	}
	return str
}
