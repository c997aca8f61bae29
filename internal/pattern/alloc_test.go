package pattern

import (
	"runtime"
	"testing"
)

// TestGenerateAllocs gates a pattern's footprint: strings are stored as
// their portions, so a whole-file string of 1<<20 blocks is a few small
// records, not a word per access (8 MiB).
func TestGenerateAllocs(t *testing.T) {
	cfg := Defaults(GW)
	cfg.TotalBlocks = 1 << 20
	const calls = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		MustGenerate(cfg)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("generating a %d-block gw pattern allocates %d bytes", cfg.TotalBlocks, per)
	if per >= 1<<10 {
		t.Fatalf("generating a %d-block gw pattern allocates %d bytes, want under 1 KB", cfg.TotalBlocks, per)
	}
}
