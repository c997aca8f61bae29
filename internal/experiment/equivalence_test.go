package experiment

import (
	"fmt"
	"strings"
	"testing"
)

// renderEverything runs the full TestScale evaluation at the given
// batch worker count (concurrent independent simulations) and renders
// every consumer-visible artifact — the per-pair table, the aggregate
// summary statistics, all nine suite figures, a parameter sweep, and
// all 23 claim verdicts — into one string. The serial-equivalence
// tests compare these renderings byte-for-byte across worker counts.
func renderEverything(workers int) string {
	opts := TestScale()
	opts.Workers = workers
	var b strings.Builder

	s := RunSuite(opts)
	b.WriteString(s.Table())
	b.WriteByte('\n')

	sum := s.Summarize()
	fmt.Fprintf(&b, "experiments=%d slowdowns=%d syncIncreased=%d/%d\n",
		sum.Experiments, sum.Slowdowns, sum.SyncTimeIncreased, sum.SyncPairs)
	fmt.Fprintf(&b, "read: median=%.6f min=%.6f max=%.6f\n",
		sum.ReadReduction.Median(), sum.ReadReduction.Min(), sum.ReadReduction.Max())
	fmt.Fprintf(&b, "exec: median=%.6f min=%.6f max=%.6f\n",
		sum.ExecReduction.Median(), sum.ExecReduction.Min(), sum.ExecReduction.Max())
	fmt.Fprintf(&b, "hit: pf median=%.6f min=%.6f, nop median=%.6f\n",
		sum.HitRatioPrefetch.Median(), sum.HitRatioPrefetch.Min(), sum.HitRatioNoPrefetch.Median())
	fmt.Fprintf(&b, "hitwait mean=%.6f action %.6f..%.6f overrun %.6f..%.6f\n",
		sum.HitWait.Mean(), sum.ActionTime.Min(), sum.ActionTime.Max(),
		sum.Overrun.Min(), sum.Overrun.Max())
	fmt.Fprintf(&b, "corr exec~read=%.9f exec~hit=%.9f read~hitwait=%.9f\n",
		sum.CorrExecVsRead, sum.CorrExecVsHit, sum.CorrReadVsHitWait)

	for _, fig := range []interface{ CSV() string }{
		s.Fig3ReadTime(), s.Fig4HitRatioCDF(), s.Fig5HitKindsCDF(),
		s.Fig6ReadVsHitWait(), s.Fig7DiskResponse(), s.Fig8TotalTime(),
		s.Fig9SyncTime(), s.Fig10ExecVsRead(), s.Fig11ExecVsHitRatio(),
	} {
		b.WriteString(fig.CSV())
	}

	sweep := ComputeSweep(opts, []int{0, 20, 40})
	b.WriteString(sweep.TotalTime.CSV())
	b.WriteString(sweep.ReadTime.CSV())
	b.WriteString(sweep.DiskResponse.CSV())
	b.WriteString(sweep.ActionTime.CSV())

	v := Verify(opts)
	b.WriteString(v.Report())
	return b.String()
}

// TestSerialParallelEquivalence is the headline correctness artifact of
// the parallel runner: executing the entire TestScale evaluation — the
// 46-pair factorial suite, a computation sweep, and the full 23-claim
// verification (which itself re-runs the suite and all four sweeps) —
// with a maximally parallel pool must render output byte-identical to
// the workers=1 serial reference path. Any hidden shared state, seed
// coupling between runs, or order-dependent collection shows up here as
// a diff.
func TestSerialParallelEquivalence(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("equivalence harness skipped in -short mode")
	}
	serial := renderEverything(1)
	parallel := renderEverything(8)
	if serial == parallel {
		return
	}
	sLines := strings.Split(serial, "\n")
	pLines := strings.Split(parallel, "\n")
	n := len(sLines)
	if len(pLines) < n {
		n = len(pLines)
	}
	for i := 0; i < n; i++ {
		if sLines[i] != pLines[i] {
			t.Fatalf("parallel output diverges from serial reference at line %d:\nserial:   %q\nparallel: %q",
				i+1, sLines[i], pLines[i])
		}
	}
	t.Fatalf("parallel output length differs: serial %d lines, parallel %d lines",
		len(sLines), len(pLines))
}

// TestSuiteEquivalenceAcrossWorkerCounts spot-checks that intermediate
// worker counts (not just 1 vs max) agree, including counts that do not
// divide the batch size evenly.
func TestSuiteEquivalenceAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	render := func(workers int) string {
		opts := TestScale()
		opts.Workers = workers
		return RunSuite(opts).Table()
	}
	want := render(1)
	for _, w := range []int{2, 3, 5, 16} {
		if got := render(w); got != want {
			t.Fatalf("workers=%d suite table differs from serial reference", w)
		}
	}
}

// TestProgressReportsEveryRun wires the optional progress callback
// through the experiment layer and checks it observes exactly one
// completion per simulation in the batch (2 runs per suite cell).
func TestProgressReportsEveryRun(t *testing.T) {
	t.Parallel()
	opts := TestScale()
	opts.Workers = 4
	var final int
	opts.Progress = func(done, total int) {
		if done == total {
			final = total
		}
	}
	s := RunSuite(opts)
	if want := 2 * len(s.Pairs); final != want {
		t.Fatalf("progress saw %d completions, want %d", final, want)
	}
}
