package disk

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// With an injector whose configured rates are all zero (only a seed),
// Enabled() is false upstream so no injector would normally be
// attached — but even when attached, service times must be untouched
// (the timeout is the only active knob here and it is unset).
func TestInjectorNoopRates(t *testing.T) {
	k := sim.NewKernel()
	d := fifoDisk(k, 30*sim.Millisecond)
	d.SetFaults(fault.New(fault.Config{Seed: 1, ReadErrorRate: 0, SpikeRate: 0}, 1))
	var req *Request
	k.Spawn("p", 0, func(p *sim.Proc) {
		req = d.Submit(1, 0, false)
		req.Complete.Wait(p)
	})
	k.Run()
	if req.Err != nil || req.Done != sim.Time(30*sim.Millisecond) {
		t.Fatalf("err=%v done=%v, want nil/30ms", req.Err, req.Done)
	}
}

// A transient error occupies the disk for its full service time and
// then completes with ErrTransient; retrying draws a fresh decision.
func TestTransientErrors(t *testing.T) {
	k := sim.NewKernel()
	d := fifoDisk(k, 30*sim.Millisecond)
	d.SetFaults(fault.New(fault.Config{Seed: 3, ReadErrorRate: 0.3}, 1))
	var reqs []*Request
	k.Spawn("p", 0, func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			r := d.Submit(i, i, false)
			r.Complete.Wait(p)
			reqs = append(reqs, r)
		}
	})
	k.Run()
	var failed int
	for i, r := range reqs {
		if r.Done != sim.Time(sim.Duration(i+1)*30*sim.Millisecond) {
			t.Fatalf("request %d done at %v: transient errors must not change timing", i, r.Done)
		}
		if r.Err != nil {
			if !errors.Is(r.Err, ErrTransient) {
				t.Fatalf("request %d: err %v, want ErrTransient", i, r.Err)
			}
			if r.FetchError() == nil {
				t.Fatalf("FetchError must expose Err")
			}
			failed++
		}
	}
	if failed < 30 || failed > 90 {
		t.Fatalf("%d/200 transient failures, want ~60", failed)
	}
	if got := d.FaultStats().Transient; got != int64(failed) {
		t.Fatalf("stats.Transient = %d, want %d", got, failed)
	}
}

// Two same-seeded runs must produce identical per-request outcomes.
func TestFaultDeterminism(t *testing.T) {
	run := func() []error {
		k := sim.NewKernel()
		d := fifoDisk(k, 30*sim.Millisecond)
		d.SetFaults(fault.New(fault.Config{Seed: 9, ReadErrorRate: 0.2, SpikeRate: 0.2, SpikeMultiplier: 3}, 1))
		var errs []error
		k.Spawn("p", 0, func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				r := d.Submit(i, i%17, false)
				r.Complete.Wait(p)
				errs = append(errs, r.Err)
			}
		})
		k.Run()
		return errs
	}
	a, b := run(), run()
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			t.Fatalf("request %d: run A err=%v, run B err=%v", i, a[i], b[i])
		}
	}
}

// A spiked request's service time is multiplied (and tailed); the
// following request starts late as a result.
func TestSpikeInflatesService(t *testing.T) {
	k := sim.NewKernel()
	d := fifoDisk(k, 10*sim.Millisecond)
	// SpikeRate ~1: use 0.999 so every request spikes (rate 1 is
	// rejected by Validate).
	d.SetFaults(fault.New(fault.Config{Seed: 5, SpikeRate: 0.999, SpikeMultiplier: 4}, 1))
	var req *Request
	k.Spawn("p", 0, func(p *sim.Proc) {
		req = d.Submit(1, 0, false)
		req.Complete.Wait(p)
	})
	k.Run()
	if req.Err != nil {
		t.Fatalf("spikes are slow, not failures: err=%v", req.Err)
	}
	if req.Done != sim.Time(40*sim.Millisecond) {
		t.Fatalf("done at %v, want 40ms (4x multiplier)", req.Done)
	}
	if d.FaultStats().Spikes != 1 {
		t.Fatalf("stats.Spikes = %d, want 1", d.FaultStats().Spikes)
	}
}

// A stuck request wedges the disk for the stuck delay when no timeout
// is configured, and is released at the timeout with ErrTimeout when
// one is.
func TestStuckAndTimeout(t *testing.T) {
	cfg := fault.Config{Seed: 2, StuckRate: 0.999, StuckDelay: 2 * sim.Second}

	k := sim.NewKernel()
	d := fifoDisk(k, 30*sim.Millisecond)
	d.SetFaults(fault.New(cfg, 1))
	var req *Request
	k.Spawn("p", 0, func(p *sim.Proc) {
		req = d.Submit(1, 0, false)
		req.Complete.Wait(p)
	})
	k.Run()
	if req.Err != nil || req.Done != sim.Time(2*sim.Second) {
		t.Fatalf("untimed stuck request: err=%v done=%v, want nil/2s", req.Err, req.Done)
	}

	cfg.Timeout = 100 * sim.Millisecond
	k = sim.NewKernel()
	d = fifoDisk(k, 30*sim.Millisecond)
	d.SetFaults(fault.New(cfg, 1))
	k.Spawn("p", 0, func(p *sim.Proc) {
		req = d.Submit(1, 0, false)
		req.Complete.Wait(p)
	})
	k.Run()
	if !errors.Is(req.Err, ErrTimeout) {
		t.Fatalf("timed-out stuck request: err=%v, want ErrTimeout", req.Err)
	}
	if req.Done != sim.Time(100*sim.Millisecond) {
		t.Fatalf("released at %v, want the 100ms timeout", req.Done)
	}
	st := d.FaultStats()
	if st.Stuck != 1 || st.Timeouts != 1 {
		t.Fatalf("stats = %+v, want Stuck=1 Timeouts=1", st)
	}
}

// Killing a disk fails the queue immediately, fails the in-service
// request at its completion instant, and refuses later submissions
// synchronously.
func TestDiskKill(t *testing.T) {
	k := sim.NewKernel()
	a := NewArray(k, 2, Fixed(30*sim.Millisecond), FIFO)
	a.SetFaults(fault.New(fault.Config{Seed: 1, KillAt: 45 * sim.Millisecond, KillDisk: 0}, 2))

	var first, inService, queued, late, other *Request
	k.Spawn("p", 0, func(p *sim.Proc) {
		first = a.Submit(0, 1, 0, false)     // completes cleanly at 30ms, before the kill
		inService = a.Submit(0, 2, 1, false) // serving (30–60ms) when the kill fires at 45ms
		queued = a.Submit(0, 3, 2, false)    // still queued at kill time
		other = a.Submit(1, 4, 0, false)     // disk 1 is unaffected
		queued.Complete.Wait(p)
		inService.Complete.Wait(p)
		late = a.Submit(0, 5, 3, false) // after death: refused on arrival
		if !late.Complete.Fired() {
			t.Error("submit on dead disk must complete synchronously")
		}
		other.Complete.Wait(p)
	})
	k.Run()

	if first.Err != nil {
		t.Fatalf("pre-kill request failed: %v", first.Err)
	}
	if !errors.Is(queued.Err, ErrDead) || queued.Done != sim.Time(45*sim.Millisecond) {
		t.Fatalf("queued: err=%v done=%v, want ErrDead at kill time", queued.Err, queued.Done)
	}
	if !errors.Is(inService.Err, ErrDead) || inService.Done != sim.Time(60*sim.Millisecond) {
		t.Fatalf("in-service: err=%v done=%v, want ErrDead at its scheduled completion", inService.Err, inService.Done)
	}
	if !errors.Is(late.Err, ErrDead) {
		t.Fatalf("late: err=%v, want ErrDead", late.Err)
	}
	if other.Err != nil {
		t.Fatalf("disk 1 request failed: %v", other.Err)
	}
	if a.Alive(0) || !a.Alive(1) || a.AliveCount() != 1 {
		t.Fatalf("liveness: disk0=%v disk1=%v count=%d", a.Alive(0), a.Alive(1), a.AliveCount())
	}
	if got := a.FaultStats().DeadFailed; got != 3 {
		t.Fatalf("DeadFailed = %d, want 3 (in-service + queued + late)", got)
	}
}

// Kill on the in-service request: the disk stays busy until the
// scheduled completion but accepts nothing new meanwhile.
func TestKillWhileIdle(t *testing.T) {
	k := sim.NewKernel()
	a := NewArray(k, 2, Fixed(30*sim.Millisecond), FIFO)
	a.SetFaults(fault.New(fault.Config{Seed: 1, KillAt: 10 * sim.Millisecond, KillDisk: 1}, 2))
	var req *Request
	k.Spawn("p", 0, func(p *sim.Proc) {
		p.Advance(20 * sim.Millisecond)
		req = a.Submit(1, 1, 0, false)
	})
	k.Run()
	if !errors.Is(req.Err, ErrDead) || !req.Complete.Fired() {
		t.Fatalf("submit after idle kill: err=%v fired=%v", req.Err, req.Complete.Fired())
	}
}

// Satellite: property test — under heavy injected latency spikes,
// SSTF and SCAN must still serve every submitted request exactly once
// (the aged-SSTF starvation bound holds under faults too), and FIFO
// must preserve order.
func TestSchedulingUnderSpikesServesAll(t *testing.T) {
	profile := Profile{Access: 5 * sim.Millisecond, SeekPerBlock: 50 * sim.Microsecond, MaxSeek: 20 * sim.Millisecond}
	for _, policy := range SchedPolicies {
		for seed := uint64(1); seed <= 5; seed++ {
			k := sim.NewKernel()
			d := NewArray(k, 1, profile, policy).Disk(0)
			d.SetFaults(fault.New(fault.Config{
				Seed:            seed,
				SpikeRate:       0.3,
				SpikeMultiplier: 8,
				SpikeMean:       40 * sim.Millisecond,
				ReadErrorRate:   0.1,
			}, 1))
			pos := fault.New(fault.Config{Seed: seed, ReadErrorRate: 0.5}, 1) // reuse as a cheap seeded stream source
			posStream := pos.RetryStream(0)

			const n = 300
			completions := make(map[int]int, n)
			var reqs []*Request
			// Two submitters with staggered arrivals keep the queue
			// deep so reordering policies have real choices.
			submit := func(p *sim.Proc, base int) {
				for i := 0; i < n/2; i++ {
					r := d.Submit(base+i, int(posStream.Uint32()%4096), false)
					r.Complete.OnFire(func() { completions[int(r.Block)]++ })
					reqs = append(reqs, r)
					p.Advance(sim.Duration(1+posStream.Uint32()%8) * sim.Millisecond)
				}
			}
			k.Spawn("a", 0, func(p *sim.Proc) { submit(p, 0) })
			k.Spawn("b", 0, func(p *sim.Proc) { submit(p, n/2) })
			k.Run()

			if len(completions) != n {
				t.Fatalf("%v seed %d: %d distinct blocks completed, want %d", policy, seed, len(completions), n)
			}
			for block, c := range completions {
				if c != 1 {
					t.Fatalf("%v seed %d: block %d completed %d times", policy, seed, block, c)
				}
			}
			for _, r := range reqs {
				if !r.Complete.Fired() {
					t.Fatalf("%v seed %d: block %d never completed", policy, seed, r.Block)
				}
				if r.Done < r.Started || r.Started < r.Enqueued {
					t.Fatalf("%v seed %d: inverted timestamps %+v", policy, seed, r)
				}
			}
			if d.Served() != n {
				t.Fatalf("%v seed %d: served %d, want %d", policy, seed, d.Served(), n)
			}
		}
	}
}

// killed returns an array of n disks with the listed ones dead.
func killed(n int, dead ...int) *Array {
	k := sim.NewKernel()
	a := NewArray(k, n, Fixed(30*sim.Millisecond), FIFO)
	for _, i := range dead {
		a.ScheduleKill(i, 0)
	}
	k.Run()
	return a
}

// Remap spreads a dead disk's blocks over every survivor, never lands
// on a dead disk, and falls back to the home disk only when no other
// disk is alive.
func TestRemap(t *testing.T) {
	a := killed(4, 1)
	used := map[int]bool{}
	for b := 0; b < 12; b++ {
		d := a.Remap(1, b)
		if d == 1 || !a.Alive(d) {
			t.Fatalf("block %d remapped to disk %d", b, d)
		}
		used[d] = true
	}
	if len(used) != 3 {
		t.Fatalf("blocks of the dead disk spread over %v, want all 3 survivors", used)
	}

	a = killed(5, 1, 2, 3)
	for b := 0; b < 12; b++ {
		if d := a.Remap(1, b); d != 0 && d != 4 {
			t.Fatalf("block %d remapped to disk %d, want a survivor (0 or 4)", b, d)
		}
	}

	a = killed(3, 0, 1, 2)
	for b := 0; b < 6; b++ {
		if d := a.Remap(1, b); d != 1 {
			t.Fatalf("block %d remapped to disk %d with no survivor, want home 1", b, d)
		}
	}
}

// A latency storm covers the requests dispatched in [start, end): one
// dispatched exactly at the window's end is served at full speed.
func TestStormWindowEndsAtEnd(t *testing.T) {
	k := sim.NewKernel()
	a := NewArray(k, 1, Fixed(10*sim.Millisecond), FIFO)
	a.SetStorm(0, 0, 30*sim.Millisecond, 3)
	stormed := a.Submit(0, 1, 0, false) // dispatched at 0: 30 ms
	after := a.Submit(0, 2, 0, false)   // dispatched at 30 ms, the window's end
	k.Run()
	if stormed.Done != sim.Time(30*sim.Millisecond) {
		t.Fatalf("stormed request done at %v, want 30ms", stormed.Done)
	}
	if after.Started != sim.Time(30*sim.Millisecond) || after.Done != sim.Time(40*sim.Millisecond) {
		t.Fatalf("request dispatched at the storm's end ran %v–%v, want 30ms–40ms", after.Started, after.Done)
	}
	if n := a.FaultStats().Stormed; n != 1 {
		t.Fatalf("%d stormed requests, want 1", n)
	}
}
