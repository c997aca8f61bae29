package experiment

import (
	"fmt"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/prefetch"
)

// PredictorRow is one (pattern, predictor) measurement of the
// on-the-fly prediction study.
type PredictorRow struct {
	Kind      pattern.Kind
	Predictor prefetch.Kind
	// ExecReduction and ReadReduction are percentage improvements over
	// the same cell without prefetching.
	ExecReduction float64
	ReadReduction float64
	HitRatio      float64
	// Wasted counts prefetched blocks never used (mispredictions);
	// Evicted is the subset recycled to make room.
	Wasted  int64
	Evicted int64
	// Issued counts successful prefetches.
	Issued int64
}

// PredictorStudy compares the paper's oracle policies against the
// on-the-fly predictors (OBL, SEQ, GAPS) across all six access
// patterns — the follow-on question the paper poses in §VI. The
// expected shape: the oracle is an upper bound; SEQ approaches it on
// local patterns; GAPS is the only on-the-fly predictor that captures
// globally sequential patterns; OBL, designed for uniprocessors,
// struggles everywhere that sequentiality is not process-local.
type PredictorStudy struct {
	Rows []PredictorRow
}

// RunPredictorStudy runs the comparison with balanced computation and
// the every-N-per-process synchronization style.
func RunPredictorStudy(opts Options) *PredictorStudy {
	study := &PredictorStudy{}
	preds := []prefetch.Kind{prefetch.Oracle, prefetch.OBL, prefetch.SEQ, prefetch.GAPS}
	// One base run per pattern followed by its predictor runs: stride
	// 1+len(preds) in the flat batch.
	var cfgs []core.Config
	for _, kind := range pattern.Kinds {
		cfgs = append(cfgs, opts.Config(kind, barrier.EveryNPerProc, false, false))
		for _, pk := range preds {
			cfg := opts.Config(kind, barrier.EveryNPerProc, false, true)
			cfg.Predictor = pk
			cfgs = append(cfgs, cfg)
		}
	}
	results := runAll(opts, cfgs)
	stride := 1 + len(preds)
	for ki, kind := range pattern.Kinds {
		base := results[ki*stride]
		for pi, pk := range preds {
			r := results[ki*stride+1+pi]
			study.Rows = append(study.Rows, PredictorRow{
				Kind:          kind,
				Predictor:     pk,
				ExecReduction: metrics.PercentReduction(base.TotalTimeMillis(), r.TotalTimeMillis()),
				ReadReduction: metrics.PercentReduction(base.ReadTime.Mean(), r.ReadTime.Mean()),
				HitRatio:      r.HitRatio(),
				Wasted:        r.Cache.PrefetchesIssued - r.Cache.PrefetchesConsumed,
				Evicted:       r.Cache.PrefetchesEvicted,
				Issued:        r.Cache.PrefetchesIssued,
			})
		}
	}
	return study
}

// Row returns the measurement for a (pattern, predictor) pair, or nil.
func (s *PredictorStudy) Row(kind pattern.Kind, pk prefetch.Kind) *PredictorRow {
	for i := range s.Rows {
		if s.Rows[i].Kind == kind && s.Rows[i].Predictor == pk {
			return &s.Rows[i]
		}
	}
	return nil
}

// Table renders the study.
func (s *PredictorStudy) Table() string {
	tb := &metrics.Table{Header: []string{
		"pattern", "predictor", "Δexec%", "Δread%", "hit", "issued", "wasted",
	}}
	for _, r := range s.Rows {
		tb.AddRow(
			r.Kind.String(),
			r.Predictor.String(),
			fmt.Sprintf("%+.1f", r.ExecReduction),
			fmt.Sprintf("%+.1f", r.ReadReduction),
			fmt.Sprintf("%.3f", r.HitRatio),
			fmt.Sprintf("%d", r.Issued),
			fmt.Sprintf("%d", r.Wasted),
		)
	}
	return tb.String()
}

// Figure renders exec-time reductions as one series per predictor over
// the patterns (x = pattern index in pattern.Kinds order).
func (s *PredictorStudy) Figure() *metrics.Figure {
	f := &metrics.Figure{
		Title:  "On-the-fly predictors vs the oracle — exec-time reduction by pattern",
		XLabel: "pattern (0=lfp 1=lrp 2=lw 3=gfp 4=grp 5=gw)",
		YLabel: "% reduction in total execution time",
	}
	markers := map[prefetch.Kind]byte{
		prefetch.Oracle: 'O', prefetch.OBL: 'b', prefetch.SEQ: 's', prefetch.GAPS: 'g',
	}
	series := map[prefetch.Kind]*metrics.Series{}
	for _, r := range s.Rows {
		sr := series[r.Predictor]
		if sr == nil {
			sr = f.AddSeries(r.Predictor.String(), markers[r.Predictor])
			series[r.Predictor] = sr
		}
		for i, k := range pattern.Kinds {
			if k == r.Kind {
				sr.Add(float64(i), r.ExecReduction)
			}
		}
	}
	return f
}
