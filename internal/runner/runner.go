// Package runner executes independent simulations concurrently.
//
// Every experiment in this repository — the 46-pair factorial suite,
// the Fig. 12–16 parameter sweeps, the §VI extension studies — is a
// batch of completely independent core.Engine runs: each run builds its
// own kernel, disks, cache, and RNG streams from its Config's seeds, so
// nothing is shared between runs and adding or reordering runs cannot
// perturb results. That makes the batch embarrassingly parallel, and
// this package provides the one execution engine all of them use: a
// bounded worker pool with
//
//   - ordered result collection: results[i] always corresponds to
//     job i, so downstream rendering is byte-identical to the serial
//     path no matter how the scheduler interleaves the workers;
//   - panic capture: a crashed run becomes a *PanicError in the batch
//     error instead of killing the whole suite;
//   - a serial reference path: Workers == 1 executes every job in
//     submission order on the calling goroutine, with no pool at all.
//     The equivalence tests in internal/experiment assert the parallel
//     path renders byte-identical output to this reference.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Options configures one batch execution.
type Options struct {
	// Workers bounds how many jobs run concurrently. Zero or negative
	// means runtime.GOMAXPROCS(0); 1 selects the serial reference path
	// (submission order, calling goroutine, no pool).
	Workers int
	// Progress, if non-nil, is called once per completed job with the
	// number finished so far and the batch size. Calls are serialized
	// and done is strictly increasing, but — under parallelism — the
	// completion order of the underlying jobs is unspecified.
	Progress func(done, total int)
}

// EffectiveWorkers resolves the Workers field to the actual pool size.
func (o Options) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError reports a job that panicked. The batch continues; the
// panic surfaces in the error returned by Map.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: run %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Map runs job(0), …, job(n-1) through the pool and returns their
// results in job order. Failed jobs (error or panic) leave the zero value at their
// index; all failures are joined into the returned error. The result
// slice contents depend only on the jobs themselves, never on the
// worker count or scheduling.
func Map[T any](opts Options, n int, job func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return results, nil
	}

	var mu sync.Mutex
	done := 0
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
			if opts.Progress != nil {
				mu.Lock()
				done++
				opts.Progress(done, n)
				mu.Unlock()
			}
		}()
		// Label the job body so CPU profiles of a suite attribute samples
		// to individual runs (pprof -tagfocus run=17).
		pprof.Do(context.Background(), pprof.Labels("run", strconv.Itoa(i)), func(context.Context) {
			results[i], errs[i] = job(i)
		})
	}

	workers := opts.EffectiveWorkers()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial reference path: submission order, no goroutines.
		for i := 0; i < n; i++ {
			runOne(i)
		}
		return results, errors.Join(errs...)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// RunConfigs executes one simulation per configuration and returns the
// results in configuration order.
func RunConfigs(opts Options, cfgs []core.Config) ([]*core.Result, error) {
	return Map(opts, len(cfgs), func(i int) (res *core.Result, err error) {
		// The cfg label (pattern/sync/io/pf) stacks on Map's run index, so
		// profiles can be sliced by experimental cell (-tagfocus cfg=...).
		pprof.Do(context.Background(), pprof.Labels("cfg", cfgs[i].Label()), func(context.Context) {
			res, err = core.Run(cfgs[i])
		})
		return res, err
	})
}

// MustRunConfigs is RunConfigs for configurations known to be valid: it
// panics on any error, mirroring core.MustRun's contract.
func MustRunConfigs(opts Options, cfgs []core.Config) []*core.Result {
	res, err := RunConfigs(opts, cfgs)
	if err != nil {
		panic(err)
	}
	return res
}
