package cache

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestBlockIndexSharding checks the index across shard counts: every
// mapped block is found, deletes take effect, and size agrees — the
// same contract the single map gave the cache.
func TestBlockIndexSharding(t *testing.T) {
	t.Parallel()
	for _, total := range []int{1, 80, 4096, 200_000} {
		var x blockIndex
		x.init(total)
		if n := len(x.shards); n&(n-1) != 0 {
			t.Fatalf("total %d: shard count %d not a power of two", total, n)
		}
		bufs := make([]Buffer, 500)
		for i := range bufs {
			x.set(i*7, &bufs[i])
		}
		if got := x.size(); got != len(bufs) {
			t.Fatalf("total %d: size %d, want %d", total, got, len(bufs))
		}
		for i := range bufs {
			if x.get(i*7) != &bufs[i] {
				t.Fatalf("total %d: block %d not found", total, i*7)
			}
			if x.get(i*7+1) != nil {
				t.Fatalf("total %d: phantom block %d", total, i*7+1)
			}
		}
		for i := 0; i < len(bufs); i += 2 {
			x.del(i * 7)
		}
		for i := range bufs {
			want := &bufs[i]
			if i%2 == 0 {
				want = nil
			}
			if got := x.get(i * 7); got != want {
				t.Fatalf("total %d: block %d after delete: got %p want %p", total, i*7, got, want)
			}
		}
	}
}

// TestBlockIndexConcurrentReaders hammers Lookup/Contains from many
// goroutines while the index holds a fixed population. Run under -race
// this is the proof that the sharded index tolerates concurrent
// readers.
func TestBlockIndexConcurrentReaders(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel()
	c := New(k, Options{DemandFrames: 512, PrefetchFrames: 64, Nodes: 8, MaxPrefetchedUnused: 64})
	for i := 0; i < 512; i++ {
		if c.AllocateWrite(i%8, i) == nil {
			t.Fatal("allocation failed")
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20_000; i++ {
				b := c.Lookup((i + w) % 1024)
				if ((i+w)%1024 < 512) != (b != nil) {
					t.Errorf("lookup %d wrong presence", (i+w)%1024)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkBlockIndexParallelLookup measures index lookups under
// GOMAXPROCS-way read concurrency at a cluster-scale population — the
// sharding's reason to exist.
func BenchmarkBlockIndexParallelLookup(b *testing.B) {
	var x blockIndex
	const frames = 400_000
	x.init(frames)
	bufs := make([]Buffer, frames)
	for i := range bufs {
		x.set(i, &bufs[i])
	}
	b.ReportAllocs()
	b.SetParallelism(max(1, runtime.GOMAXPROCS(0)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if x.get(i%frames) == nil {
				b.Error("missing block")
				return
			}
			i += 97
		}
	})
}
