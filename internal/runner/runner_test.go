package runner

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pattern"
)

func TestOrderedResults(t *testing.T) {
	t.Parallel()
	// Jobs finish out of order (later jobs sleep less), but results
	// must land at their submission index.
	n := 32
	got, err := Map(Options{Workers: 8}, n, func(i int) (int, error) {
		time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestWorkerBound(t *testing.T) {
	t.Parallel()
	const workers = 3
	var active, peak atomic.Int64
	_, err := Map(Options{Workers: workers}, 40, func(i int) (int, error) {
		cur := active.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		active.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
}

func TestSerialReferenceOrder(t *testing.T) {
	t.Parallel()
	// Workers == 1 must execute jobs in submission order on the calling
	// goroutine — the reference path for the equivalence guarantee.
	var order []int
	_, err := Map(Options{Workers: 1}, 10, func(i int) (int, error) {
		order = append(order, i) // safe: single goroutine
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path ran job %d at position %d", v, i)
		}
	}
}

func TestPanicCapture(t *testing.T) {
	t.Parallel()
	got, err := Map(Options{Workers: 4}, 8, func(i int) (int, error) {
		if i == 3 {
			panic("boom")
		}
		return i + 1, nil
	})
	if err == nil {
		t.Fatal("want error from panicked run")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T does not unwrap to *PanicError", err)
	}
	if pe.Index != 3 || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic error incomplete: %+v", pe)
	}
	if !strings.Contains(err.Error(), "run 3 panicked: boom") {
		t.Fatalf("error text %q", err.Error())
	}
	// The other runs completed despite the crash.
	for i, v := range got {
		want := i + 1
		if i == 3 {
			want = 0
		}
		if v != want {
			t.Fatalf("results[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestErrorsJoined(t *testing.T) {
	t.Parallel()
	sentinel := errors.New("sentinel")
	_, err := Map(Options{Workers: 2}, 6, func(i int) (int, error) {
		if i%2 == 0 {
			return 0, fmt.Errorf("job %d: %w", i, sentinel)
		}
		return 0, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("joined error %v does not wrap sentinel", err)
	}
}

func TestProgressSerializedAndComplete(t *testing.T) {
	t.Parallel()
	const n = 25
	var calls []int
	_, err := Map(Options{Workers: 5, Progress: func(done, total int) {
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		calls = append(calls, done) // safe: Progress is serialized
	}}, n, func(i int) (int, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != n {
		t.Fatalf("progress called %d times, want %d", len(calls), n)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done values not strictly increasing: %v", calls)
		}
	}
}

func TestEffectiveWorkersDefault(t *testing.T) {
	t.Parallel()
	if got := (Options{}).EffectiveWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Options{Workers: -3}).EffectiveWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative workers = %d, want GOMAXPROCS", got)
	}
	if got := (Options{Workers: 7}).EffectiveWorkers(); got != 7 {
		t.Fatalf("explicit workers = %d, want 7", got)
	}
}

func TestEmptyBatch(t *testing.T) {
	t.Parallel()
	got, err := Map(Options{}, 0, func(i int) (int, error) { return 1, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
}

// TestRunConfigsMatchesDirectRuns is the package-level equivalence
// check: running configurations through the pool must give results
// identical to calling the engine directly, in order, for any worker
// count.
func TestRunConfigsMatchesDirectRuns(t *testing.T) {
	t.Parallel()
	var cfgs []core.Config
	for _, kind := range []pattern.Kind{pattern.GW, pattern.LFP, pattern.LW, pattern.GRP} {
		cfg := core.DefaultConfig(kind)
		cfg.Procs = 4
		cfg.Disks = 4
		cfg.Pattern.Procs = 4
		cfg.Pattern.TotalBlocks = 80
		cfg.Pattern.BlocksPerProc = 20
		cfgs = append(cfgs, cfg)
		cfg.Prefetch = true
		cfgs = append(cfgs, cfg)
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = core.MustRun(cfg).String()
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := RunConfigs(Options{Workers: workers}, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if got[i].String() != want[i] {
				t.Fatalf("workers=%d: result %d differs from direct run:\n%s\nvs\n%s",
					workers, i, got[i].String(), want[i])
			}
		}
	}
}

func TestMustRunConfigsPanicsOnInvalid(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for invalid config")
		}
	}()
	MustRunConfigs(Options{Workers: 2}, []core.Config{{}})
}
