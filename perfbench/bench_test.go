package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapaccess2", "repro/internal/cache.(*blockIndex).get", "repro/internal/prefetch.(*Policy).scan"}, "cache"},
		{[]string{"repro/internal/rng.(*Source).Uint64", "repro/internal/core.(*cnode).Wake"}, "core"},
		{[]string{"repro/internal/obs/telemetry.(*Sink).Span", "repro/internal/disk.(*Disk).complete"}, "obs"},
		{[]string{"runtime.chanrecv", "repro/internal/sim.(*Proc).park"}, "sim"},
		{[]string{"repro/internal/runner.run", "repro/internal/experiment.RunSuite"}, "other"},
		{[]string{"runtime.mallocgc", "main.digest"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime._GC"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime.sched"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

var spinSink uint64

func TestFoldProfiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pb.gz")
	stop, err := startProfile(path)
	if err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	spinSink = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	into := map[string]int64{}
	if err := foldProfiles([]string{path}, into); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range into {
		total += v
	}
	// The spin loop is benchmark code with no repository frame.
	if total == 0 || into["other"]*2 < total {
		t.Errorf("folded profile %v: want most CPU in other", into)
	}
	garbage := filepath.Join(t.TempDir(), "garbage.pb.gz")
	if err := os.WriteFile(garbage, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := foldProfiles([]string{garbage}, into); err == nil {
		t.Error("garbage folded without error")
	}
}

func TestFoldTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 1.13s (113.00%)
-----------+-------------------------------------------------------
      90ms   runtime.mapaccess2
             repro/internal/cache.(*blockIndex).get (inline)
             repro/internal/prefetch.(*Policy).scan
-----------+-------------------------------------------------------
       cfg:  lfp/total/balanced/nopf
     1.01s   runtime.scanobject
             runtime.gcDrain
-----------+-------------------------------------------------------
      30ms   runtime.futex
             runtime.findRunnable
-----------+-------------------------------------------------------
`
	into := map[string]int64{}
	if err := foldTraces([]byte(out), into); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"cache": 90e6, "runtime.gc": 1010e6, "runtime.sched": 30e6}
	if len(into) != len(want) {
		t.Errorf("folded %v, want %v", into, want)
	}
	for k, v := range want {
		if into[k] != v {
			t.Errorf("folded %v, want %v", into, want)
		}
	}
}

func TestSpanQuantiles(t *testing.T) {
	s := &layerSink{}
	for _, d := range []int64{0, 1, 3, 1000, 1500, 3000} {
		s.Span(obs.Span{Kind: obs.SpanDiskQueue, Start: 10, End: 10 + d})
	}
	a := &s.spans[obs.SpanDiskQueue]
	if a.n != 6 || a.sumUS != 5504 {
		t.Fatalf("n=%d sum=%d, want 6 and 5504", a.n, a.sumUS)
	}
	// p50 is the 3rd smallest (3 µs, bucket [2,4)); p99 the largest
	// (3000 µs, bucket [2048,4096)).
	if got := a.quantileMS(0.5); got != 0.004 {
		t.Errorf("p50 = %v ms, want 0.004", got)
	}
	if got := a.quantileMS(0.99); got != 4.096 {
		t.Errorf("p99 = %v ms, want 4.096", got)
	}
	if got := s.spans[obs.SpanSyncWait].quantileMS(0.5); got != 0 {
		t.Errorf("empty kind p50 = %v, want 0", got)
	}
}

// declared is a metric as BENCHMARK.json declares it.
type declared struct{ Name, Unit string }

// benchmarkJSON is the subset of the repository's BENCHMARK.json that
// names the workloads and metrics.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []declared              `json:"end_to_end"`
	PerLayer  []declared              `json:"per_layer"`
}

func loadSpec(t *testing.T) (spec, benchmarkJSON) {
	t.Helper()
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return sp, bj
}

// TestSmokeWorkloads runs every workload at its smoke size, traced and
// untraced, and checks that the run is correct — at seed 1 against the
// pinned digest — and reports exactly the metrics BENCHMARK.json
// declares, with their units.
func TestSmokeWorkloads(t *testing.T) {
	sp, bj := loadSpec(t)
	if len(sp.Workloads) != len(bj.Workloads) {
		t.Fatalf("spec.json has %d workloads, BENCHMARK.json %d", len(sp.Workloads), len(bj.Workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != bj.Workloads[i].Name {
			t.Errorf("workload %d: spec.json %q, BENCHMARK.json %q", i, w.Name, bj.Workloads[i].Name)
		}
		if w.Pins["smoke"] == "" || w.Pins["default"] == "" {
			t.Errorf("%s: missing a pinned seed-1 digest", w.Name)
		}
		for _, seed := range []uint64{1, 2} {
			cfg := config{name: w.Name, size: "smoke", seed: seed, seconds: 0.05, trace: true,
				params: w.Params["smoke"], pin: w.Pins["smoke"]}
			res, err := measure(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			if len(res.failures) > 0 {
				t.Errorf("%s seed %d: failures %v", w.Name, seed, res.failures)
			}
			checkMetrics(t, w.Name+" end-to-end", res.e2e, bj.EndToEnd)
			checkMetrics(t, w.Name+" per-layer", res.layer, bj.PerLayer)
		}
	}
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want []declared) {
	t.Helper()
	for _, m := range want {
		if g, ok := got[m.Name]; !ok {
			t.Errorf("%s: metric %s missing", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		var names []string
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		t.Errorf("%s: reports %d metrics %v, BENCHMARK.json declares %d", what, len(got), names, len(want))
	}
}

func TestPinMismatchFails(t *testing.T) {
	sp, _ := loadSpec(t)
	w := sp.Workloads[0]
	cfg := config{name: w.Name, size: "smoke", seed: 1, seconds: 0.01,
		params: w.Params["smoke"], pin: "not-the-digest"}
	res, err := measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.failures) != 1 {
		t.Errorf("failures %v, want exactly the pin mismatch", res.failures)
	}
}

// TestUntracedFailuresStop checks that a workload whose traced
// repetitions succeed but whose untraced ones all fail ends the run,
// reported as failed, instead of looping without end.
func TestUntracedFailuresStop(t *testing.T) {
	rep := func(sink obs.Sink) (*outcome, error) {
		if sink == nil {
			return nil, errors.New("untraced path broken")
		}
		return &outcome{digest: "d", nodes: 1}, nil
	}
	done := make(chan *result, 1)
	go func() {
		res, err := measureRep(config{name: "stub", seed: 2, seconds: 0.01}, rep)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res == nil {
			return
		}
		if want := 2 * minReps; len(res.failures) != want {
			t.Errorf("%d failures %v, want %d", len(res.failures), res.failures, want)
		}
		if res.attempted <= len(res.failures) {
			t.Errorf("attempted %d, failed %d: the traced repetition should count", res.attempted, len(res.failures))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("measureRep did not stop")
	}
}
