package cache

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/sim"
)

// TestBlockIndexMatchesMap drives random put/get/del sequences on
// 8–64-slot tables against a map reference. Keys come from a range a
// few times the table, filled to its frame capacity, so probe runs
// collide and wrap past the table's end. After every step every
// reference key must resolve to its frame, absent keys must miss, and
// the table must pass its audit against a frame arena kept in step.
func TestBlockIndexMatchesMap(t *testing.T) {
	for _, frames := range []int{4, 5, 8, 13, 32} {
		for seed := uint64(1); seed <= 20; seed++ {
			x := newBlockIndex(frames)
			r := rng.New(seed, uint64(frames))
			arena := make([]Buffer, frames)
			var free []int32
			for f := range arena {
				arena[f].block = -1
				free = append(free, int32(f))
			}
			ref := map[int32]int32{}
			keys := 4 * len(x.slots)
			pick := func() int32 {
				if k := r.Intn(keys + 1); k < keys {
					return int32(k)
				}
				return math.MaxInt32
			}
			for step := 0; step < 400; step++ {
				b := pick()
				f, in := ref[b]
				switch {
				case in && (len(free) == 0 || r.Intn(2) == 0):
					x.del(b)
					delete(ref, b)
					arena[f].block = -1
					free = append(free, f)
				case !in && len(free) > 0:
					f = free[len(free)-1]
					free = free[:len(free)-1]
					x.put(b, f)
					ref[b] = f
					arena[f].block = b
				}
				if err := x.audit(arena); err != nil {
					t.Fatalf("frames=%d seed=%d step %d: %v", frames, seed, step, err)
				}
				for k, f := range ref {
					if got := x.get(int(k)); got != f {
						t.Fatalf("frames=%d seed=%d step %d: get(%d) = %d, want %d", frames, seed, step, k, got, f)
					}
				}
				for probe := 0; probe < 8; probe++ {
					k := pick()
					if _, in := ref[k]; !in && x.get(int(k)) != -1 {
						t.Fatalf("frames=%d seed=%d step %d: get(%d) = %d for an absent key", frames, seed, step, k, x.get(int(k)))
					}
				}
			}
		}
	}
}

// TestBlockIndexSizing: the table is the smallest power of two at least
// twice the frame count, and its home slots cover all of it.
func TestBlockIndexSizing(t *testing.T) {
	for _, c := range []struct{ frames, slots int }{
		{1, 2}, {2, 4}, {3, 8}, {80, 256}, {4096, 8192}, {12000, 32768}, {36000, 131072},
	} {
		x := newBlockIndex(c.frames)
		if len(x.slots) != c.slots {
			t.Errorf("%d frames: %d slots, want %d", c.frames, len(x.slots), c.slots)
		}
		seen := make([]bool, len(x.slots))
		for b := int32(0); b < int32(4*len(x.slots)); b++ {
			seen[x.home(b)] = true
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("%d frames: no block homes at slot %d", c.frames, i)
			}
		}
	}
}

// TestBlockIndexSpreadsWindows: the cache's resident set is a few
// windows of consecutive or strided blocks. Filled to capacity with
// such a window, the table must keep its probe runs short: an identity
// hash packs the window into one run as long as the window, and every
// miss homed inside it walks to the run's end.
func TestBlockIndexSpreadsWindows(t *testing.T) {
	for _, stride := range []int32{1, 3, 4, 20} {
		for _, base := range []int32{0, 1000, 1 << 20} {
			x := newBlockIndex(512)
			for i := int32(0); i < 512; i++ {
				x.put(base+i*stride, i)
			}
			longest, run := 0, 0
			for i := 0; i < 2*len(x.slots); i++ { // twice round, for a run that wraps
				if x.slots[i%len(x.slots)].frame == 0 {
					run = 0
					continue
				}
				run++
				longest = max(longest, run)
			}
			if longest > 16 {
				t.Errorf("stride %d from %d: longest probe run %d of 1024 slots", stride, base, longest)
			}
		}
	}
}

// TestBlockIndexPanicsOnMisuse: a block id past int32 would alias
// another block, and a second entry for a block or the removal of an
// absent one would corrupt the count, so each panics.
func TestBlockIndexPanicsOnMisuse(t *testing.T) {
	_, c := newTestCache(2, 0, 1, 0)
	c.AllocateDemand(0, 5)
	misuse := map[string]func(){
		"Contains(MaxInt32+1)":    func() { c.Contains(math.MaxInt32 + 1) },
		"Contains(MinInt32-1)":    func() { c.Contains(math.MinInt32 - 1) },
		"Lookup(1<<32)":           func() { c.Lookup(1 << 32) },
		"put of an indexed block": func() { c.idx.put(5, 1) },
		"del of an absent block":  func() { c.idx.del(6) },
	}
	for name, fn := range misuse {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	if err := c.Audit(); err != nil || c.Lookup(5) == nil || c.Contains(math.MaxInt32) {
		t.Fatalf("a refused call changed the index: %v", err)
	}
}

// TestCacheAllocs: New allocates the block index as one object whatever
// the frame count, and a warmed cycle of demand fills, prefetch fills,
// consumption, mistake eviction, failed fills and LRU recycling
// allocates nothing.
func TestCacheAllocs(t *testing.T) {
	k := sim.NewKernel()
	newAllocs := func(frames int) float64 {
		return testing.AllocsPerRun(20, func() {
			New(k, Options{DemandFrames: frames, PrefetchFrames: frames, Nodes: 4})
		})
	}
	// The Cache, its per-node counters, the Freed queue, the fill
	// sentinel, the frame arena and the block index.
	if small, large := newAllocs(4), newAllocs(20000); small != 6 || large != 6 {
		t.Errorf("New allocates %v objects at 8 frames and %v at 40,000, want 6", small, large)
	}
	c := New(k, Options{DemandFrames: 8, PrefetchFrames: 8, Nodes: 2, EvictablePrefetched: true})
	block := 0
	cycle := func() {
		block++
		d := c.AllocateDemand(0, block)
		c.markReady(d)
		c.Unpin(d)
		p, res := c.AllocatePrefetch(1, 1<<20+block)
		if res != PrefetchOK {
			t.Fatalf("prefetch of block %d: %v", 1<<20+block, res)
		}
		switch block % 4 {
		case 0:
			c.failFetch(p)
		case 1:
			c.markReady(p)
			c.Pin(0, p)
			c.Unpin(p)
		default:
			c.markReady(p) // left unconsumed, for mistake eviction
		}
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("warmed cycle allocates %v objects, want 0", n)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Evictions == 0 || s.PrefetchesEvicted == 0 || s.FailedPrefetchFills == 0 {
		t.Fatalf("cycle missed a path: %+v", s)
	}
}

// TestRecordSizes pins the frame record: a cluster cache holds three
// frames per node in one arena.
func TestRecordSizes(t *testing.T) {
	got, limit := unsafe.Sizeof(Buffer{}), uintptr(88)
	t.Logf("Buffer: %d bytes", got)
	if got > limit {
		t.Errorf("Buffer is %d bytes, want at most %d", got, limit)
	}
}
