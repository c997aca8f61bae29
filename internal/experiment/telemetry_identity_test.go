package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

// clusterCfg is the shared cluster-scale cell of the invariance tests:
// a CI-sized compact-engine run with the sweep's disk ratio and
// compute balance.
func clusterCfg(nodes int) core.Config {
	opts := ScaleOptions{Nodes: []int{nodes}}.withDefaults()
	cfg := core.ScaleConfig(nodes, disksFor(nodes), true)
	cfg.Seed = opts.Seed
	cfg.Pattern.Seed = opts.Seed
	cfg.Pattern.TotalBlocks = nodes * opts.BlocksPerNode
	cfg.ComputeMean = computeMean(cfg.DiskAccess)
	return cfg
}

// TestTelemetryGoldenInvariance extends the PR-4 identity guarantee to
// the telemetry sink at cluster scale: a compact-engine sweep cell
// must produce byte-identical Result JSON with no sink, with a counter
// sink, and with the full telemetry sink (windows + histograms + node
// sampling + flight recorder). Telemetry is a pure fold over the
// emission stream — if this test fails, a sink grew a feedback path
// into the simulation.
func TestTelemetryGoldenInvariance(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs three 2000-node simulations")
	}
	const nodes = 2000
	run := func(sink obs.Sink) []byte {
		cfg := clusterCfg(nodes)
		cfg.Obs = sink
		b, err := json.Marshal(core.MustRun(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	nilBytes := run(nil)
	ctrBytes := run(&obs.CounterSink{})
	tel := telemetry.New(telemetry.Config{SampleK: 8, Nodes: nodes, SampleSeed: 1})
	telBytes := run(tel)

	if !bytes.Equal(nilBytes, ctrBytes) {
		t.Error("counter sink perturbed the cluster-scale Result")
	}
	if !bytes.Equal(nilBytes, telBytes) {
		t.Error("telemetry sink perturbed the cluster-scale Result")
	}
	// The sink must actually have observed the run, or the equality
	// proves nothing.
	rec := tel.Recorder()
	if len(rec.Windows) == 0 || rec.Counters[obs.CtrKernelEvents] == 0 {
		t.Fatalf("telemetry sink saw nothing: %d windows", len(rec.Windows))
	}
	if len(rec.Spans) == 0 {
		t.Error("node sampling recorded no spans")
	}
}

// TestScaleSweepTelemetry drives RunScaleSweep's telemetry path at CI
// size: the recorder must be attached, windowed, and consistent with
// the cell's counters, and its spans must come from the sample.
func TestScaleSweepTelemetry(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a small scale sweep")
	}
	opts := ScaleOptions{
		Nodes:        []int{1000},
		KneeDivisors: []int{8, 1},
		Telemetry:    true,
		SampleK:      4,
	}
	sweep := RunScaleSweep(opts)
	rec := sweep.Telemetry
	if rec == nil {
		t.Fatal("sweep did not attach a telemetry recorder")
	}
	if rec.Width != telemetry.DefaultWindow {
		t.Errorf("window %d µs, want default %d", rec.Width, telemetry.DefaultWindow)
	}
	if len(rec.Windows) == 0 {
		t.Fatal("recorder has no windows")
	}
	// The windowed kernel-event deltas must sum to the cell's total.
	var events int64
	for i := range rec.Windows {
		events += rec.Windows[i].Ctrs[obs.CtrKernelEvents]
	}
	if events != rec.Counters[obs.CtrKernelEvents] || events == 0 {
		t.Errorf("windowed kernel events sum %d, totals say %d", events, rec.Counters[obs.CtrKernelEvents])
	}
	if len(rec.Spans) == 0 {
		t.Error("sweep did not record the sampled spans")
	}
	// Sampled spans come only from the sampled proc tracks and the
	// barrier.
	var procs []int
	for _, tr := range rec.Tracks() {
		if tr.Kind == obs.TrackProc {
			procs = append(procs, tr.ID)
		} else if tr.Kind != obs.TrackBarrier {
			t.Errorf("track %s leaked into the sampled spans", tr)
		}
	}
	if want := telemetry.SampleNodes(1, 1000, 4); !reflect.DeepEqual(procs, want) {
		t.Errorf("sampled processors %v, want %v", procs, want)
	}
}
