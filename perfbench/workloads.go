package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// params are one workload's size parameters, as spec.json lists them.
type params map[string]int

func (p params) get(key string) (int, error) {
	v, ok := p[key]
	if !ok || v <= 0 {
		return 0, fmt.Errorf("workload parameter %q missing or not positive", key)
	}
	return v, nil
}

// outcome is one repetition of a workload: host times of its set-up and
// simulate phases, the digest of its simulated result, and the result
// itself, kept alive for the retained-heap measurement.
type outcome struct {
	setup, run phase
	digest     string
	nodes      int
	keep       any
	// calls holds host seconds of timed public calls: CPU seconds of
	// pattern.generate_s, core.new_s and fs.create_s, and the wall-clock
	// span of fs.sync_s, from the first client entering Sync to the last
	// leaving it.
	calls map[string]float64
	// fill, when set, supplies counters of layers that report to no sink
	// (the fs package's cache and disks) from their public statistics.
	fill func(*obs.Counters)
	// dupAlloc and dupMallocs are the bytes and objects allocated by a
	// timed set-up pass that the simulate phase repeats internally; the
	// allocation metrics leave them out.
	dupAlloc, dupMallocs uint64
}

// repFunc runs one repetition; sink is nil for an untraced run.
type repFunc func(sink obs.Sink) (*outcome, error)

// prepare returns the repetition function of a workload at the given
// size and seed. Input derivation that every repetition shares (the
// chaos cell's kill time) happens here, outside every measurement.
func prepare(name string, p params, seed uint64) (repFunc, error) {
	switch name {
	case "paper-suite":
		return paperSuite(p, seed)
	case "cluster-clean":
		return clusterCell(p, seed, false)
	case "cluster-chaos":
		return clusterCell(p, seed, true)
	case "fs-etl":
		return fsETL(p, seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// digest hashes the JSON encoding of a simulated result.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// paperSuite runs experiment.RunSuite serially. Its set-up time is
// core.New over every configuration of the suite, timed in a pass of its
// own because RunSuite builds the engines internally; that pass's
// allocation is left out of the allocation metrics.
func paperSuite(p params, seed uint64) (repFunc, error) {
	opts := experiment.PaperScale()
	var err error
	if opts.Procs, err = p.get("procs"); err != nil {
		return nil, err
	}
	if opts.TotalBlocks, err = p.get("total_blocks"); err != nil {
		return nil, err
	}
	if opts.BlocksPerProc, err = p.get("blocks_per_proc"); err != nil {
		return nil, err
	}
	opts.Seed = seed
	opts.Workers = 1
	opts.SimWorkers = 1
	var cfgs []core.Config
	for _, c := range experiment.Cells() {
		for _, prefetch := range []bool{false, true} {
			cfgs = append(cfgs, opts.Config(c.Kind, c.Sync, c.IOBound, prefetch))
		}
	}
	return func(sink obs.Sink) (*outcome, error) {
		o := opts
		o.Obs = sink
		out := &outcome{nodes: len(cfgs) * opts.Procs, calls: map[string]float64{}}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var err error
		out.setup, err = threadPhase(func() error {
			for _, cfg := range cfgs {
				if _, err := core.New(cfg); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		out.dupAlloc, out.dupMallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
		runtime.GC() // the throwaway engines are not the simulate phase's garbage
		out.calls["core.new_s"] = out.setup.cpu.Seconds()
		if sink != nil {
			gen, err := threadPhase(func() error {
				for _, cfg := range cfgs {
					if _, err := pattern.Generate(cfg.Pattern); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			out.calls["pattern.generate_s"] = gen.cpu.Seconds()
		}
		var s *experiment.Suite
		out.run = processPhase(func() { s = experiment.RunSuite(o) })
		out.keep = s
		out.digest, err = digest(s.Pairs)
		return out, err
	}, nil
}

// clusterCell builds the compact-engine reference cell, optionally
// under the chaos composition of experiment.VerifyChaosClaims.
func clusterCell(p params, seed uint64, chaos bool) (repFunc, error) {
	nodes, err := p.get("nodes")
	if err != nil {
		return nil, err
	}
	disks, err := p.get("disks")
	if err != nil {
		return nil, err
	}
	perNode, err := p.get("blocks_per_node")
	if err != nil {
		return nil, err
	}
	base := core.ScaleConfig(nodes, disks, true)
	base.Seed = seed
	base.Pattern.Seed = seed
	base.Pattern.TotalBlocks = perNode * nodes
	base.ComputeMean = 7 * base.DiskAccess
	if chaos {
		// The experiment package's chaos composition, rebuilt from public
		// fields; the rack kill lands at a quarter of the clean cell's
		// virtual total, so the clean cell runs once first.
		racks, err := p.get("racks")
		if err != nil {
			return nil, err
		}
		clean, err := core.Run(base)
		if err != nil {
			return nil, err
		}
		racks = min(racks, disks)
		base.Fault = fault.Config{Seed: seed + 11, ReadErrorRate: 0.01}
		base.NodeFault.Seed = seed + 5
		base.NodeFault.StallRate = 0.01
		base.NodeFault.StallMean = sim.Millisecond
		base.Domain = fault.DomainConfig{
			Seed:        seed + 9,
			Domains:     fault.SplitDomains("rack", disks, nodes, racks),
			StormDomain: "rack0", StormAt: 50 * sim.Millisecond,
			StormFor: 200 * sim.Millisecond, StormFactor: 3,
			StormJitter:     10 * sim.Millisecond,
			StragglerDomain: fmt.Sprintf("rack%d", racks-1),
			StragglerFactor: 2, StragglerRate: 0.25,
			KillDomain: fmt.Sprintf("rack%d", racks/2),
			KillAt:     clean.TotalTime / 4,
		}
	}
	return func(sink obs.Sink) (*outcome, error) {
		cfg := base
		cfg.Obs = sink
		out := &outcome{nodes: nodes, calls: map[string]float64{}}
		if sink != nil {
			gen, err := threadPhase(func() error {
				_, err := pattern.Generate(cfg.Pattern)
				return err
			})
			if err != nil {
				return nil, err
			}
			out.calls["pattern.generate_s"] = gen.cpu.Seconds()
		}
		var e *core.Engine
		var err error
		out.setup, err = threadPhase(func() error {
			e, err = core.New(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		out.calls["core.new_s"] = out.setup.cpu.Seconds()
		var r *core.Result
		out.run = processPhase(func() { r = e.Run() })
		reads := 0
		for _, ps := range r.PerProc {
			reads += ps.Reads
		}
		if reads != cfg.Pattern.TotalBlocks {
			return nil, fmt.Errorf("%d of %d blocks read", reads, cfg.Pattern.TotalBlocks)
		}
		out.keep = r
		out.digest, err = digest(r)
		return out, err
	}, nil
}

// etlResult is the simulated outcome of the fs-etl job.
type etlResult struct {
	FinishUS  int64
	Cache     cache.Stats
	Served    int64
	MeanRespM float64
	Writes    int64
	Pending   int
	Faults    fs.Faults
}

// fsETL stages an input and an output file and runs one client Proc per
// stripe: read block i of the input, compute, write block i of the
// output, and finally Sync. The seed permutes which stripe each client
// owns. A panic in a client, which runs on a goroutine of its own, is
// recovered there and fails the repetition.
func fsETL(p params, seed uint64) (repFunc, error) {
	var v [6]int
	for i, key := range []string{"clients", "disks", "blocks_per_client", "readahead", "frames_per_client", "compute_us"} {
		var err error
		if v[i], err = p.get(key); err != nil {
			return nil, err
		}
	}
	clients, disks, per, readahead, frames := v[0], v[1], v[2], v[3], v[4]
	compute := sim.Duration(v[5]) * sim.Microsecond
	stripe := rand.New(rand.NewPCG(seed, 0x657463)).Perm(clients)
	opts := fs.Options{
		Disks:           disks,
		CacheFrames:     frames * clients,
		ReadaheadFrames: frames * clients,
		Readahead:       readahead,
		Nodes:           clients,
		Memory:          memory.Default(),
	}
	return func(sink obs.Sink) (*outcome, error) {
		out := &outcome{nodes: clients, calls: map[string]float64{}}
		k := sim.NewKernel()
		if sink != nil {
			k.SetObserver(sink)
		}
		var (
			fsys               *fs.FileSystem
			in, dst            *fs.File
			finish             sim.Time
			syncStart, syncEnd time.Time
			clientPanic        error
		)
		setup, err := threadPhase(func() error {
			var err error
			if fsys, err = fs.New(k, opts); err != nil {
				return err
			}
			create, err := threadPhase(func() error {
				var err error
				if in, err = fsys.Create("input", per*clients); err != nil {
					return err
				}
				dst, err = fsys.Create("output", per*clients)
				return err
			})
			if err != nil {
				return err
			}
			out.calls["fs.create_s"] = create.cpu.Seconds()
			for c := 0; c < clients; c++ {
				c := c
				k.Spawn(fmt.Sprintf("client%d", c), 0, func(p *sim.Proc) {
					defer func() {
						if r := recover(); r != nil && clientPanic == nil {
							clientPanic = fmt.Errorf("client%d panic: %v", c, r)
						}
					}()
					hin, hout := in.OpenHandle(c), dst.OpenHandle(c)
					first := stripe[c] * per
					for i := first; i < first+per; i++ {
						hin.Read(p, i)
						p.Advance(compute)
						hout.Write(p, i)
					}
					hin.Close()
					hout.Close()
					if syncStart.IsZero() {
						syncStart = time.Now()
					}
					fsys.Sync(p)
					syncEnd = time.Now()
					finish = max(finish, p.Now())
				})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out.setup = setup
		out.run = processPhase(k.Run)
		if clientPanic != nil {
			return nil, clientPanic
		}
		out.calls["fs.sync_s"] = syncEnd.Sub(syncStart).Seconds()
		served, resp := fsys.DiskStats()
		res := etlResult{
			FinishUS: int64(finish), Cache: fsys.CacheStats(), Served: served,
			MeanRespM: resp, Writes: fsys.WritesIssued(),
			Pending: fsys.PendingWrites(), Faults: fsys.FaultStats(),
		}
		if res.Pending != 0 || res.Writes != int64(per*clients) {
			return nil, fmt.Errorf("fs-etl: %d of %d writes issued, %d still pending",
				res.Writes, per*clients, res.Pending)
		}
		cs := res.Cache
		out.fill = func(c *obs.Counters) {
			c[obs.CtrDiskRequests] = served
			c[obs.CtrDiskPrefetchRequests] = cs.PrefetchesIssued
			c[obs.CtrCacheReadyHits] = cs.ReadyHits
			c[obs.CtrCacheUnreadyHits] = cs.UnreadyHits
			c[obs.CtrCacheMisses] = cs.Misses
			c[obs.CtrCacheFailedFills] = cs.FailedFills
			c[obs.CtrCachePrefetchesIssued] = cs.PrefetchesIssued
			c[obs.CtrCachePrefetchesConsumed] = cs.PrefetchesConsumed
		}
		out.keep = fsys
		out.digest, err = digest(res)
		return out, err
	}, nil
}
