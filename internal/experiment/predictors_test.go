package experiment

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/pattern"
	"repro/internal/prefetch"
)

// Built once under sync.Once so parallel tests can share the fixture;
// immutable after construction.
var (
	studyOnce   sync.Once
	cachedStudy *PredictorStudy
)

func testStudy(t *testing.T) *PredictorStudy {
	t.Helper()
	studyOnce.Do(func() { cachedStudy = RunPredictorStudy(TestScale()) })
	return cachedStudy
}

func TestPredictorStudyShape(t *testing.T) {
	t.Parallel()
	s := testStudy(t)
	if len(s.Rows) != 6*4 {
		t.Fatalf("rows = %d, want 24", len(s.Rows))
	}
	for _, kind := range pattern.Kinds {
		oracle := s.Row(kind, prefetch.Oracle)
		if oracle == nil {
			t.Fatalf("missing oracle row for %v", kind)
		}
		if oracle.Wasted != 0 {
			t.Errorf("%v: oracle wasted %d prefetches (it never mispredicts)", kind, oracle.Wasted)
		}
		for _, pk := range prefetch.Kinds {
			r := s.Row(kind, pk)
			if r == nil {
				t.Fatalf("missing %v row for %v", pk, kind)
			}
			// No on-the-fly predictor should beat the oracle's hit
			// ratio by more than noise.
			if r.HitRatio > oracle.HitRatio+0.05 {
				t.Errorf("%v/%v hit %.3f exceeds oracle %.3f", kind, pk, r.HitRatio, oracle.HitRatio)
			}
		}
	}
}

func TestPredictorStudyNarrative(t *testing.T) {
	t.Parallel()
	s := testStudy(t)
	// GAPS captures globally sequential patterns that local-view
	// predictors cannot.
	gwGaps := s.Row(pattern.GW, prefetch.GAPS)
	gwOBL := s.Row(pattern.GW, prefetch.OBL)
	if gwGaps.HitRatio <= gwOBL.HitRatio {
		t.Errorf("gw: GAPS hit %.3f should beat OBL %.3f", gwGaps.HitRatio, gwOBL.HitRatio)
	}
	// GAPS is blind to local patterns: it never gains confidence, so it
	// issues (almost) nothing.
	lfpGaps := s.Row(pattern.LFP, prefetch.GAPS)
	if lfpGaps.Issued > int64(TestScale().Procs*TestScale().BlocksPerProc)/10 {
		t.Errorf("lfp: GAPS issued %d prefetches on a pattern it cannot see", lfpGaps.Issued)
	}
	// SEQ beats OBL on local fixed portions (longer confident runs).
	lfpSeq := s.Row(pattern.LFP, prefetch.SEQ)
	lfpOBL := s.Row(pattern.LFP, prefetch.OBL)
	if lfpSeq.HitRatio < lfpOBL.HitRatio-0.05 {
		t.Errorf("lfp: SEQ hit %.3f should be at least OBL's %.3f", lfpSeq.HitRatio, lfpOBL.HitRatio)
	}
	// On-the-fly predictors mispredict on portioned patterns; the
	// oracle does not.
	if lfpOBL.Wasted == 0 {
		t.Error("lfp: OBL should overshoot portion ends")
	}
}

func TestPredictorStudyTableAndFigure(t *testing.T) {
	t.Parallel()
	s := testStudy(t)
	table := s.Table()
	if !strings.Contains(table, "oracle") || !strings.Contains(table, "gaps") {
		t.Fatalf("table malformed:\n%.200s", table)
	}
	fig := s.Figure()
	if len(fig.Series) != 4 {
		t.Fatalf("figure series = %d", len(fig.Series))
	}
	for _, sr := range fig.Series {
		if len(sr.Points) != 6 {
			t.Fatalf("series %s has %d points", sr.Name, len(sr.Points))
		}
	}
	if s.Row(pattern.GW, prefetch.Kind(99)) != nil {
		t.Fatal("Row returned something for unknown predictor")
	}
}
