package disk

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// diskOrderDigest pins the order in which the disks serve their queues:
// for every request, in completion order, its disk, block, dispatch and
// completion instants, and whether it failed. It was generated while
// each queue was still a slice with a head index, so it shows that the
// linked queue serves the same requests at the same instants.
const diskOrderDigest = "ca43a89ef215433400e6397ad5312c44c503dc04efee27c8b1bcf68de737a1ef"

// pinSubmit submits a read and, when it completes, writes the request
// into h and releases it, so the pinned runs recycle their records.
func pinSubmit(h hash.Hash, a *Array, disk, block, phys int) {
	r := a.Submit(disk, block, phys, false)
	r.Complete.OnFire(func() {
		fmt.Fprintf(h, "%d %d %d %d %t\n", r.Disk, r.Block, r.Started, r.Done, r.Err != nil)
		r.Release()
	})
}

// pinBursts drives an array of three seeking disks with eight bursts
// of 50 reads at random positions, 400 ms apart, so every queue builds
// up, is reordered and drains several times.
func pinBursts(h hash.Hash, policy SchedPolicy) {
	k := sim.NewKernel()
	a := NewArray(k, 3, Profile{Access: 10 * sim.Millisecond, SeekPerBlock: 100 * sim.Microsecond, MaxSeek: 15 * sim.Millisecond}, policy)
	src := rng.Make(1, 0)
	block := 0
	for burst := 0; burst < 8; burst++ {
		for i := 0; i < 50; i++ {
			at := sim.Time(sim.Duration(burst)*400*sim.Millisecond + sim.Duration(src.Intn(50))*sim.Millisecond)
			disk, phys, b := src.Intn(3), src.Intn(256), block
			block++
			k.Schedule(at, func() { pinSubmit(h, a, disk, b, phys) })
		}
	}
	k.Run()
}

// pinStarvation feeds an SSTF disk near-head reads every 5 ms behind
// one far read, which only the starvation bound gets served.
func pinStarvation(h hash.Hash) {
	k := sim.NewKernel()
	a := NewArray(k, 1, Profile{Access: 10 * sim.Millisecond, SeekPerBlock: sim.Millisecond}, SSTF)
	pinSubmit(h, a, 0, 0, 0)
	pinSubmit(h, a, 0, 1, 10000)
	for i := 0; i < 200; i++ {
		i := i
		k.Schedule(sim.Time(sim.Duration(i)*5*sim.Millisecond), func() { pinSubmit(h, a, 0, 2+i, i%4) })
	}
	k.Run()
}

// pinKill kills a SCAN disk with reads still queued behind the one in
// service, then keeps submitting to the dead disk and its neighbour.
func pinKill(h hash.Hash) {
	k := sim.NewKernel()
	a := NewArray(k, 2, Profile{Access: 10 * sim.Millisecond, SeekPerBlock: 100 * sim.Microsecond}, SCAN)
	a.ScheduleKill(0, 100*sim.Millisecond)
	src := rng.Make(9, 0)
	for i := 0; i < 60; i++ {
		at := sim.Time(sim.Duration(src.Intn(200)) * sim.Millisecond)
		disk, phys, b := src.Intn(2), src.Intn(256), i
		k.Schedule(at, func() { pinSubmit(h, a, disk, b, phys) })
	}
	k.Run()
}

func TestServiceOrderPinned(t *testing.T) {
	h := sha256.New()
	for _, policy := range SchedPolicies {
		fmt.Fprintf(h, "bursts %v\n", policy)
		pinBursts(h, policy)
	}
	fmt.Fprintln(h, "starvation")
	pinStarvation(h)
	fmt.Fprintln(h, "kill")
	pinKill(h)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != diskOrderDigest {
		t.Fatalf("service-order digest = %s, want %s", got, diskOrderDigest)
	}
}
