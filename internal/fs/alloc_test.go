package fs

import (
	"testing"

	"repro/internal/memory"
	"repro/internal/sim"
)

// TestAllocsPerRead pins the allocation rate per block read of a small
// job shaped like the fs-etl benchmark workload: 64 clients on 32
// disks each read 16 blocks of an input file, compute 5 ms per block,
// write the block to an output file behind their backs, and Sync. Disk
// requests and write-behind records are recycled through pools that
// live for the whole run, so each read costs its share of set-up and
// the clients' coroutines: 1.18 allocations per read (1,211 per run),
// and the bound leaves ~40% headroom.
func TestAllocsPerRead(t *testing.T) {
	const clients, disks, per = 64, 32, 16
	allocs := testing.AllocsPerRun(3, func() {
		k := sim.NewKernel()
		fsys := MustNew(k, Options{
			Disks:           disks,
			CacheFrames:     4 * clients,
			ReadaheadFrames: 4 * clients,
			Readahead:       2,
			Nodes:           clients,
			Memory:          memory.Default(),
		})
		in, err := fsys.Create("input", per*clients)
		if err != nil {
			t.Fatal(err)
		}
		out, err := fsys.Create("output", per*clients)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < clients; c++ {
			c := c
			k.Spawn("client", 0, func(p *sim.Proc) {
				hin, hout := in.OpenHandle(c), out.OpenHandle(c)
				for i := c * per; i < (c+1)*per; i++ {
					hin.Read(p, i)
					p.Advance(5 * sim.Millisecond)
					hout.Write(p, i)
				}
				hin.Close()
				hout.Close()
				fsys.Sync(p)
			})
		}
		k.Run()
		if fsys.PendingWrites() != 0 {
			t.Fatalf("%d writes still pending", fsys.PendingWrites())
		}
	})
	perRead := allocs / (clients * per)
	t.Logf("%.0f allocations per run, %d reads: %.2f per read", allocs, clients*per, perRead)
	if perRead > 1.7 {
		t.Errorf("%.2f allocations per read, want at most 1.7", perRead)
	}
}

// The write-behind and disk request pools live for one kernel run. A
// Sync that drains every write keeps the write-behind records for the
// next writes; after the run, a kept file system holds no free record,
// unless a frame still held keeps its disk request out.
func TestPoolsLiveForOneRun(t *testing.T) {
	k := sim.NewKernel()
	fsys := newFS(k, 0)
	f, err := fsys.Create("data", 32)
	if err != nil {
		t.Fatal(err)
	}
	var held *Handle
	k.Spawn("client", 0, func(p *sim.Proc) {
		w := f.OpenHandle(0)
		for round := 0; round < 3; round++ {
			for b := 0; b < 4; b++ {
				w.Write(p, 4*round+b)
			}
			fsys.Sync(p)
			if len(fsys.wbFree) == 0 {
				t.Errorf("round %d: the write drain dropped the free write-behind records", round)
			}
		}
		w.Close()
		held = f.OpenHandle(1)
		held.Read(p, 20) // the frame stays pinned past the run
	})
	k.Run()
	if fsys.wbFree != nil {
		t.Fatalf("%d free write-behind records kept after the run", len(fsys.wbFree))
	}
	if fsys.disks.Pooled() == 0 {
		t.Fatal("the request pool was dropped while a record was still out")
	}
	held.Close()
	k.Run()
	if n := fsys.disks.Pooled(); n != 0 {
		t.Fatalf("%d free request records kept after the run", n)
	}
}
