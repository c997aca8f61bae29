package experiment

import (
	"bytes"
	"encoding/json"
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
	if len(tel.Windows()) == 0 || tel.Totals()[obs.CtrKernelEvents] == 0 {
		t.Fatalf("telemetry sink saw nothing: %d windows", len(tel.Windows()))
	}
	if rec := tel.Sampled(); rec == nil || len(rec.Spans) == 0 {
		t.Error("node sampling recorded no spans")
	}
}

// TestScaleSweepTelemetry drives RunScaleSweep's telemetry path at CI
// size: the snapshot and sampled trace must be attached, windowed, and
// consistent with the cell's counters.
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
	if sweep.Telemetry == nil {
		t.Fatal("sweep did not attach a telemetry snapshot")
	}
	sn := sweep.Telemetry
	if sn.WindowMicros != telemetry.DefaultWindow {
		t.Errorf("window %d µs, want default %d", sn.WindowMicros, telemetry.DefaultWindow)
	}
	if len(sn.Windows) == 0 {
		t.Fatal("snapshot has no windows")
	}
	if len(sn.SampleNodes) != 4 {
		t.Errorf("sampled %v, want 4 nodes", sn.SampleNodes)
	}
	// The windowed kernel-event deltas must sum to the cell's total.
	var events int64
	for i := range sn.Windows {
		events += sn.Windows[i].Ctrs[obs.CtrKernelEvents]
	}
	if events != sn.Totals[obs.CtrKernelEvents] || events == 0 {
		t.Errorf("windowed kernel events sum %d, totals say %d", events, sn.Totals[obs.CtrKernelEvents])
	}
	if sweep.SampledTrace == nil || len(sweep.SampledTrace.Spans) == 0 {
		t.Error("sweep did not attach the sampled trace")
	}
	// Sampled spans only come from sampled proc tracks or the barrier.
	sampled := map[int]bool{}
	for _, id := range sn.SampleNodes {
		sampled[id] = true
	}
	for _, sp := range sweep.SampledTrace.Spans {
		if sp.Track.Kind == obs.TrackProc && !sampled[sp.Track.ID] {
			t.Fatalf("unsampled node %d leaked into the sampled trace", sp.Track.ID)
		}
	}
}
