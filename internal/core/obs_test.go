package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/barrier"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// observedConfig is smallConfig with sync, prefetching, and a span
// recorder installed — the full observability surface in one run.
func observedConfig(rec obs.Sink) Config {
	cfg := smallConfig(pattern.GW, 4, 120)
	cfg.Sync = barrier.EveryNTotal
	cfg.SyncEveryTotal = 40
	cfg.Prefetch = true
	cfg.Obs = rec
	return cfg
}

// TestObservedRunCountersConsistent checks the counters against the
// engine's own statistics: the sink must agree with what the run
// already measures, or the hooks are misplaced.
func TestObservedRunCountersConsistent(t *testing.T) {
	t.Parallel()
	rec := obs.NewRecorder()
	cfg := observedConfig(rec)
	res := MustRun(cfg)

	c := &rec.Counters
	hits := c.Get(obs.CtrCacheReadyHits) + c.Get(obs.CtrCacheUnreadyHits)
	misses := c.Get(obs.CtrCacheMisses)
	if hits+misses != res.Cache.Accesses() {
		t.Errorf("hits %d + misses %d != accesses %d", hits, misses, res.Cache.Accesses())
	}
	if got := c.Get(obs.CtrCachePrefetchesIssued); got != res.Cache.PrefetchesIssued {
		t.Errorf("prefetches issued counter %d, result says %d", got, res.Cache.PrefetchesIssued)
	}
	// Every demand miss and every issued prefetch is one disk request.
	if got := c.Get(obs.CtrDiskRequests); got != misses+c.Get(obs.CtrCachePrefetchesIssued) {
		t.Errorf("disk requests %d != misses %d + prefetches %d",
			got, misses, c.Get(obs.CtrCachePrefetchesIssued))
	}
	if got := c.Get(obs.CtrDiskPrefetchRequests); got != res.Cache.PrefetchesIssued {
		t.Errorf("disk prefetch requests %d, want %d", got, res.Cache.PrefetchesIssued)
	}
	if c.Get(obs.CtrBarrierGens) == 0 {
		t.Error("no barrier generations observed despite sync")
	}
	if len(rec.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	// The span horizon matches the run's completion time.
	if got := rec.End(); got != int64(res.TotalTime) {
		t.Errorf("span horizon %d, run total %d", got, int64(res.TotalTime))
	}
}

// TestObservedRunDeterministic records the same configuration twice and
// demands byte-identical traces: observation must be a pure function of
// the run.
func TestObservedRunDeterministic(t *testing.T) {
	t.Parallel()
	record := func() string {
		rec := obs.NewRecorder()
		MustRun(observedConfig(rec))
		var sb strings.Builder
		if _, err := rec.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := record(), record()
	if a != b {
		t.Fatal("two traced runs of the same config differ")
	}
}

// TestObservedRunDoesNotPerturb runs every configuration of the trace
// matrix bare and with a recorder: the sink must not change a single
// byte of the Result.
func TestObservedRunDoesNotPerturb(t *testing.T) {
	t.Parallel()
	forEachPinnedTrace(func(name string, cfg Config) {
		bare, err := json.Marshal(MustRun(cfg))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Obs = obs.NewRecorder()
		observed, err := json.Marshal(MustRun(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bare, observed) {
			t.Errorf("%s: observation perturbed the Result", name)
		}
	})
}

// TestObservedRunPerfettoValid writes a real traced run (with faults,
// so backoff spans appear too), reads it back and runs the nesting
// check: no span ends before it starts, and sync spans nest per track.
func TestObservedRunPerfettoValid(t *testing.T) {
	t.Parallel()
	rec := obs.NewRecorder()
	cfg := observedConfig(rec)
	cfg.Fault = fault.Config{Seed: 7, ReadErrorRate: 0.05}
	MustRun(cfg)
	if rec.Counters.Get(obs.CtrReadRetries) == 0 {
		t.Error("expected read retries at a 5% error rate")
	}
	var sb strings.Builder
	if _, err := rec.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := obs.Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.CheckNesting(); err != nil {
		t.Fatalf("traced run fails the nesting check: %v", err)
	}
	// The same run must also account cleanly: every processor's buckets
	// sum to the horizon.
	acc := rec.Account()
	for _, p := range acc.Procs {
		if p.Total() != acc.Horizon {
			t.Errorf("proc %d accounts %d of horizon %d", p.Proc, p.Total(), acc.Horizon)
		}
	}
}
