package fs

import (
	"fmt"
	"testing"

	"repro/internal/memory"
	"repro/internal/sim"
)

func newFS(k *sim.Kernel, readahead int) *FileSystem {
	return MustNew(k, Options{
		Disks:           4,
		BlockSize:       1024,
		CacheFrames:     8,
		ReadaheadFrames: 8,
		Readahead:       readahead,
		Nodes:           4,
	})
}

func TestCreateOpenErrors(t *testing.T) {
	k := sim.NewKernel()
	fs := newFS(k, 0)
	f, err := fs.Create("data", 100)
	if err != nil || f.Name() != "data" || f.Blocks() != 100 {
		t.Fatalf("Create: %v %v", f, err)
	}
	if f.SizeBytes() != 100*1024 {
		t.Fatalf("SizeBytes = %d", f.SizeBytes())
	}
	if _, err := fs.Create("data", 10); err == nil {
		t.Fatal("duplicate Create accepted")
	}
	if _, err := fs.Create("empty", 0); err == nil {
		t.Fatal("zero-size Create accepted")
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("Open of missing file succeeded")
	}
	got, err := fs.Open("data")
	if err != nil || got != f {
		t.Fatalf("Open: %v %v", got, err)
	}
}

func TestSequentialReadTiming(t *testing.T) {
	k := sim.NewKernel()
	fs := newFS(k, 0) // no readahead
	f, _ := fs.Create("data", 40)
	var readTimes []sim.Duration
	k.Spawn("client", 0, func(p *sim.Proc) {
		h := f.OpenHandle(0)
		defer h.Close()
		for b := 0; b < 8; b++ {
			readTimes = append(readTimes, h.Read(p, b))
		}
	})
	k.Run()
	for i, rt := range readTimes {
		if rt < 30*sim.Millisecond {
			t.Fatalf("read %d took %v, below disk time", i, rt)
		}
	}
	served, mean := fs.DiskStats()
	if served != 8 {
		t.Fatalf("disk served %d, want 8", served)
	}
	if mean != 30 {
		t.Fatalf("disk response %v, want 30 (no contention)", mean)
	}
}

func TestReadaheadSpeedsSequentialScan(t *testing.T) {
	run := func(readahead int) sim.Duration {
		k := sim.NewKernel()
		fs := newFS(k, readahead)
		f, _ := fs.Create("data", 64)
		var total sim.Duration
		k.Spawn("client", 0, func(p *sim.Proc) {
			h := f.OpenHandle(0)
			defer h.Close()
			start := p.Now()
			for b := 0; b < 64; b++ {
				h.Read(p, b)
				p.Advance(10 * sim.Millisecond) // process the block
			}
			total = p.Now().Sub(start)
		})
		k.Run()
		return total
	}
	plain, ahead := run(0), run(3)
	if ahead >= plain {
		t.Fatalf("readahead did not help: %v vs %v", ahead, plain)
	}
	// With depth-3 readahead and 10ms processing per 30ms disk, most
	// reads should be hits; expect a large win.
	if float64(ahead) > 0.8*float64(plain) {
		t.Fatalf("readahead win too small: %v vs %v", ahead, plain)
	}
}

func TestReadaheadDoesNotFetchPastEOF(t *testing.T) {
	k := sim.NewKernel()
	fs := newFS(k, 4)
	f, _ := fs.Create("tiny", 3)
	k.Spawn("client", 0, func(p *sim.Proc) {
		h := f.OpenHandle(0)
		defer h.Close()
		for b := 0; b < 3; b++ {
			h.Read(p, b)
		}
	})
	k.Run()
	served, _ := fs.DiskStats()
	if served > 3 {
		t.Fatalf("disk served %d requests for a 3-block file", served)
	}
}

// TestCreateKeepsBlockIDsInInt32: files share one block id space, which
// the cache keys as int32, so a file whose last id would pass
// math.MaxInt32 is refused instead of aliasing another file's blocks.
func TestCreateKeepsBlockIDsInInt32(t *testing.T) {
	k := sim.NewKernel()
	fs := newFS(k, 0)
	big, err := fs.Create("big", 1<<31-1) // ids 0 .. math.MaxInt32-1
	if err != nil {
		t.Fatalf("Create of a file ending at id MaxInt32-1: %v", err)
	}
	last, err := fs.Create("last", 1) // id math.MaxInt32
	if err != nil {
		t.Fatalf("Create of a file at id MaxInt32: %v", err)
	}
	if _, err := fs.Create("past", 1); err == nil {
		t.Fatal("Create past block id MaxInt32 accepted")
	}
	if _, err := newFS(k, 0).Create("huge", 1<<31+1); err == nil {
		t.Fatal("Create of a file past block id MaxInt32 accepted")
	}
	k.Spawn("client", 0, func(p *sim.Proc) {
		for _, f := range []*File{big, last} {
			h := f.OpenHandle(0)
			h.Read(p, 0)
			h.Read(p, f.Blocks()-1)
			h.Close()
		}
	})
	k.Run()
	if err := fs.bc.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleFilesShareCacheWithoutCollisions(t *testing.T) {
	k := sim.NewKernel()
	fs := newFS(k, 0)
	a, _ := fs.Create("a", 20)
	b, _ := fs.Create("b", 20)
	k.Spawn("client", 0, func(p *sim.Proc) {
		ha := a.OpenHandle(0)
		hb := b.OpenHandle(1)
		defer ha.Close()
		defer hb.Close()
		// Read block 5 of both files: distinct cache entries, two disk
		// requests.
		ha.Read(p, 5)
		hb.Read(p, 5)
		// Re-read a's block 5 from another handle: a hit.
		ha2 := a.OpenHandle(2)
		defer ha2.Close()
		ha2.Read(p, 5)
	})
	k.Run()
	stats := fs.CacheStats()
	if stats.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (one per file)", stats.Misses)
	}
	if stats.ReadyHits+stats.UnreadyHits != 1 {
		t.Fatalf("hits = %d, want 1", stats.ReadyHits+stats.UnreadyHits)
	}
}

func TestParallelClientsOnInterleavedFile(t *testing.T) {
	k := sim.NewKernel()
	fs := newFS(k, 0)
	f, _ := fs.Create("shared", 16)
	var finish sim.Time
	for node := 0; node < 4; node++ {
		node := node
		k.Spawn(fmt.Sprintf("c%d", node), 0, func(p *sim.Proc) {
			h := f.OpenHandle(node)
			defer h.Close()
			// Each client reads a disjoint quarter, self-interleaved.
			for i := 0; i < 4; i++ {
				h.Read(p, node+4*i)
			}
			if p.Now() > finish {
				finish = p.Now()
			}
		})
	}
	k.Run()
	// 16 blocks over 4 disks in parallel: 4 rounds of 30ms-ish, far
	// below the 480ms serial time.
	if finish > sim.Time(200*sim.Millisecond) {
		t.Fatalf("parallel scan took %v, want well under serial 480ms", finish)
	}
}

func TestHandleValidation(t *testing.T) {
	k := sim.NewKernel()
	fs := newFS(k, 0)
	f, _ := fs.Create("v", 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad node did not panic")
			}
		}()
		f.OpenHandle(99)
	}()
	k.Spawn("client", 0, func(p *sim.Proc) {
		h := f.OpenHandle(0)
		defer h.Close()
		defer func() {
			if recover() == nil {
				t.Error("out-of-range read did not panic")
			}
		}()
		h.Read(p, 4)
	})
	k.Run()
}

func TestDefaultsApplied(t *testing.T) {
	k := sim.NewKernel()
	fs, err := New(k, Options{})
	if err != nil {
		t.Fatalf("New with zero options: %v", err)
	}
	if fs.opts.Disks != 1 || fs.opts.BlockSize != 1024 || fs.opts.CacheFrames != 4 {
		t.Fatalf("defaults: %+v", fs.opts)
	}
	f, err := fs.Create("d", 2)
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("client", 0, func(p *sim.Proc) {
		h := f.OpenHandle(0)
		defer h.Close()
		h.Read(p, 0)
		h.Read(p, 1)
	})
	k.Run()
}

func TestWriteIsAsynchronous(t *testing.T) {
	k := sim.NewKernel()
	fs := newFS(k, 0)
	f, _ := fs.Create("out", 16)
	k.Spawn("writer", 0, func(p *sim.Proc) {
		h := f.OpenHandle(0)
		defer h.Close()
		wt := h.Write(p, 0)
		// A whole-block write needs no read I/O: it returns in cache
		// time, far below the 30ms disk time.
		if wt >= 30*sim.Millisecond {
			t.Errorf("write took %v, should not wait for disk", wt)
		}
		if fs.PendingWrites() != 1 {
			t.Errorf("pending writes = %d, want 1", fs.PendingWrites())
		}
		st := fs.Sync(p)
		if st == 0 {
			t.Error("Sync returned immediately with a write in flight")
		}
		if fs.PendingWrites() != 0 {
			t.Errorf("pending after Sync = %d", fs.PendingWrites())
		}
	})
	k.Run()
	if fs.WritesIssued() != 1 {
		t.Fatalf("writes issued = %d", fs.WritesIssued())
	}
}

func TestWriteThenReadHits(t *testing.T) {
	k := sim.NewKernel()
	fs := newFS(k, 0)
	f, _ := fs.Create("out", 16)
	k.Spawn("p", 0, func(p *sim.Proc) {
		h := f.OpenHandle(0)
		defer h.Close()
		h.Write(p, 3)
		rt := h.Read(p, 3) // freshly written block: a cache hit
		if rt >= 30*sim.Millisecond {
			t.Errorf("read of written block took %v, want a hit", rt)
		}
		fs.Sync(p)
	})
	k.Run()
	stats := fs.CacheStats()
	if stats.ReadyHits+stats.UnreadyHits != 1 {
		t.Fatalf("hits = %d, want 1", stats.ReadyHits+stats.UnreadyHits)
	}
	if stats.Misses != 0 {
		t.Fatalf("misses = %d, want 0 (blind writes read nothing)", stats.Misses)
	}
}

func TestWriteOverwritesCachedBlock(t *testing.T) {
	k := sim.NewKernel()
	fs := newFS(k, 0)
	f, _ := fs.Create("out", 16)
	k.Spawn("p", 0, func(p *sim.Proc) {
		h := f.OpenHandle(0)
		defer h.Close()
		h.Read(p, 5)  // fetch from disk
		h.Write(p, 5) // update in place: no new frame
		fs.Sync(p)
	})
	k.Run()
	served, _ := fs.DiskStats()
	if served != 2 { // one read + one write-back
		t.Fatalf("disk ops = %d, want 2", served)
	}
}

func TestSyncWithNoWritesReturnsImmediately(t *testing.T) {
	k := sim.NewKernel()
	fs := newFS(k, 0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		if d := fs.Sync(p); d != 0 {
			t.Errorf("empty Sync took %v", d)
		}
	})
	k.Run()
}

func TestManyWritersDrain(t *testing.T) {
	k := sim.NewKernel()
	fs := newFS(k, 0)
	f, _ := fs.Create("out", 64)
	for w := 0; w < 4; w++ {
		w := w
		k.Spawn(fmt.Sprintf("w%d", w), 0, func(p *sim.Proc) {
			h := f.OpenHandle(w)
			defer h.Close()
			for i := 0; i < 8; i++ {
				h.Write(p, w*16+i)
			}
			fs.Sync(p)
			if fs.PendingWrites() != 0 {
				t.Errorf("writer %d: pending after sync", w)
			}
		})
	}
	k.Run()
	if fs.WritesIssued() != 32 {
		t.Fatalf("writes issued = %d, want 32", fs.WritesIssued())
	}
}

func TestWriteValidation(t *testing.T) {
	k := sim.NewKernel()
	fs := newFS(k, 0)
	f, _ := fs.Create("out", 4)
	k.Spawn("p", 0, func(p *sim.Proc) {
		h := f.OpenHandle(0)
		defer h.Close()
		defer func() {
			if recover() == nil {
				t.Error("out-of-range write did not panic")
			}
		}()
		h.Write(p, 4)
	})
	k.Run()
}

// touchDuringReadahead has client 0 read block 0 at t=0, which
// readaheads blocks 1 and 2, and client 1 touch block 2 at 36 ms. By
// then the readahead has claimed block 2's frame but is still paying
// for the action, so the disk request is not submitted yet: touch must
// wait for it rather than for a transfer that does not exist. The
// memory cost model is what opens the window.
func touchDuringReadahead(t *testing.T, touch func(*Handle, *sim.Proc)) *FileSystem {
	k := sim.NewKernel()
	fs := MustNew(k, Options{
		Disks:           4,
		CacheFrames:     8,
		ReadaheadFrames: 8,
		Readahead:       2,
		Nodes:           2,
		Memory:          memory.Default(),
	})
	f, _ := fs.Create("data", 64)
	k.Spawn("client0", 0, func(p *sim.Proc) {
		h := f.OpenHandle(0)
		defer h.Close()
		h.Read(p, 0)
	})
	k.Spawn("client1", 0, func(p *sim.Proc) {
		h := f.OpenHandle(1)
		defer h.Close()
		p.Advance(36 * sim.Millisecond)
		touch(h, p)
	})
	k.Run()
	fs.bc.CheckInvariants()
	// Block 2 is fetched once, by the readahead, and the touch is an
	// unready hit on it.
	if s := fs.CacheStats(); s.Misses != 1 || s.UnreadyHits != 1 || s.PrefetchesConsumed != 1 {
		t.Fatalf("cache stats %+v: want 1 miss, 1 unready hit, 1 prefetch consumed", s)
	}
	return fs
}

func TestReadDuringReadaheadSubmit(t *testing.T) {
	touchDuringReadahead(t, func(h *Handle, p *sim.Proc) { h.Read(p, 2) })
}

func TestWriteDuringReadaheadSubmit(t *testing.T) {
	fs := touchDuringReadahead(t, func(h *Handle, p *sim.Proc) {
		h.Write(p, 2)
		h.file.fs.Sync(p)
	})
	if fs.PendingWrites() != 0 || fs.WritesIssued() != 1 {
		t.Fatalf("pending %d, issued %d: want the one write drained", fs.PendingWrites(), fs.WritesIssued())
	}
}
