package obs_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pattern"
)

func recordedRun(t *testing.T, kind pattern.Kind, prefetch bool) *obs.Recorder {
	t.Helper()
	rec := obs.NewRecorder()
	cfg := core.DefaultConfig(kind)
	cfg.Procs = 4
	cfg.Disks = 4
	cfg.Pattern.Procs = 4
	cfg.Pattern.TotalBlocks = 80
	cfg.Pattern.BlocksPerProc = 20
	cfg.Prefetch = prefetch
	cfg.Obs = rec
	core.MustRun(cfg)
	return rec
}

func TestAnalyzeGWSequentiality(t *testing.T) {
	a := obs.Analyze(recordedRun(t, pattern.GW, false))
	if a.Reads != 80 {
		t.Fatalf("reads = %d", a.Reads)
	}
	if a.DemandFetch != 80 {
		t.Fatalf("demand = %d", a.DemandFetch)
	}
	// gw: the global stream is claimed in order, so the merged request
	// stream is (almost) perfectly sequential.
	if a.GlobalSequentiality < 0.95 {
		t.Fatalf("gw global sequentiality = %v", a.GlobalSequentiality)
	}
	if len(a.PerNodeReads) != 4 {
		t.Fatalf("per-node reads: %v", a.PerNodeReads)
	}
	total := 0
	for _, n := range a.PerNodeReads {
		total += n
	}
	if total != 80 {
		t.Fatalf("per-node sum = %d", total)
	}
}

func TestAnalyzeLWLocality(t *testing.T) {
	a := obs.Analyze(recordedRun(t, pattern.LW, false))
	// Each of 4 processes reads all 20 blocks sequentially: long local
	// runs.
	if a.LocalRunLength.Mean() < 5 {
		t.Fatalf("lw mean local run = %v", a.LocalRunLength.Mean())
	}
	// But the merged stream interleaves 4 processes: low global
	// sequentiality.
	if a.GlobalSequentiality > 0.7 {
		t.Fatalf("lw global sequentiality = %v unexpectedly high", a.GlobalSequentiality)
	}
	if a.ReadyHits+a.UnreadyHits+a.DemandFetch != a.Reads {
		t.Fatal("outcome counts do not sum to reads")
	}
}

func TestAnalyzePrefetchCounts(t *testing.T) {
	a := obs.Analyze(recordedRun(t, pattern.GW, true))
	if a.Prefetches == 0 {
		t.Fatal("no prefetches in prefetching run")
	}
	if a.Prefetches+a.DemandFetch != 80 {
		t.Fatalf("fetches = %d + %d, want 80", a.Prefetches, a.DemandFetch)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := obs.Analyze(obs.NewRecorder())
	if a.Reads != 0 || a.GlobalSequentiality != 0 {
		t.Fatal("empty analysis not zero")
	}
	if s := a.String(); !strings.Contains(s, "reads=0") {
		t.Fatalf("String = %q", s)
	}
}

func TestAnalysisString(t *testing.T) {
	s := obs.Analyze(recordedRun(t, pattern.GW, true)).String()
	if !strings.Contains(s, "global sequentiality") {
		t.Fatalf("String = %q", s)
	}
}

// TestAnalyzeOrdersReadsByOrdinal builds a trace by hand whose read
// spans end in the reverse of their start order: the request stream
// must follow the ordinals in Arg, not the emission order.
func TestAnalyzeOrdersReadsByOrdinal(t *testing.T) {
	rec := obs.NewRecorder()
	for i := int64(3); i >= 0; i-- {
		// Read i of block 10+i starts at 100·i and ends at 1000 − i.
		rec.Span(obs.Span{Track: obs.ProcTrack(int(i % 2)), Kind: obs.SpanRead,
			Start: 100 * i, End: 1000 - i, Block: 10 + int(i), Arg: i})
	}
	rec.Span(obs.Span{Track: obs.ProcTrack(0), Kind: obs.SpanBackoff, Arg: 1<<2 | obs.FaultTimeout})
	rec.Span(obs.Span{Track: obs.ProcTrack(1), Kind: obs.SpanBackoff, Arg: 2<<2 | obs.FaultDead})
	a := obs.Analyze(rec)
	if a.GlobalSequentiality != 1 {
		t.Errorf("global sequentiality %v, want 1", a.GlobalSequentiality)
	}
	if got := a.InterRequest.Mean(); got != 0.1 {
		t.Errorf("mean inter-request %v ms, want 0.1", got)
	}
	if a.Retries != 2 || a.RetriesByClass[obs.FaultTimeout] != 1 || a.RetriesByClass[obs.FaultDead] != 1 {
		t.Errorf("retries %d by class %v", a.Retries, a.RetriesByClass)
	}
	if !strings.Contains(a.String(), "read retries 2 (transient=0 timeout=1 dead=1)") {
		t.Errorf("String = %q", a.String())
	}
}
