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
// requests and write-behind records are recycled, so each read costs
// its share of set-up and the clients' coroutines: 1.52 allocations per
// read, and the bound leaves ~40% headroom.
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
	if perRead > 2.1 {
		t.Errorf("%.2f allocations per read, want at most 2.1", perRead)
	}
}
