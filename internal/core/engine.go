package core

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/barrier"
	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/interleave"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/prefetch"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Engine is one configured instance of the RAPID Transit testbed. Build
// it with New, execute with Run (once), and read the Result.
type Engine struct {
	cfg    Config
	k      *sim.Kernel
	pat    *pattern.Pattern
	layout *interleave.Layout
	disks  *disk.Array
	bcache *cache.Cache
	// src is the prefetch candidate source, nil unless prefetching;
	// inCache is bcache.Contains, bound once: a method value passed
	// through the interface call escapes, and would allocate on every
	// prefetch action.
	src     prefetch.Source
	inCache func(block int) bool
	bar     *barrier.Barrier
	gens    *barrier.GenCounter
	track   memory.Tracker
	res     *Result

	// Fault injection (nil/zero unless cfg.Fault.Enabled()): the
	// injector wired into the disks. The effective retry policy is set
	// whenever a disk can die; each node's backoff-jitter stream lives
	// in its cnode.
	inj   *fault.Injector
	retry fault.RetryPolicy

	// Failure-domain injection (nil unless cfg.Domain.Enabled()), and
	// whether any disk can die this run (per-disk injector kill or a
	// domain kill) — the gate for the degraded-remap check in place.
	dinj       *fault.DomainInjector
	diskDeaths bool

	// Node-level fault injection (nil/zero unless
	// cfg.NodeFault.Enabled()): the per-processor injector, the kill
	// bookkeeping (the FIFO of blocks the victim abandoned, the event
	// announcing it, and the last victim and its unread block count,
	// which KillError reports), and the auditor itself (nil unless
	// cfg.AuditEvery > 0).
	ninj          *fault.NodeInjector
	bpGate        bool
	orphans       []int
	orphansPosted *sim.Event
	lastKilled    int
	lastOrphaned  int
	aud           *audit.Auditor

	obs obs.Sink // the kernel's sink, for the engine's own spans

	// cnodes is the processor population: one flat record per
	// processor (compact.go), built by Run.
	cnodes []cnode

	globalCursor int32 // the shared string's next index (global patterns)
	readsStarted int32 // the next read's ordinal (cnode.ordinal)
	maxFinish    sim.Time
}

// New validates the configuration, generates the access pattern, and
// assembles the testbed.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pat, err := pattern.Generate(cfg.Pattern)
	if err != nil {
		return nil, err
	}
	if err := pat.Validate(); err != nil {
		return nil, fmt.Errorf("core: generated pattern invalid: %w", err)
	}
	k := sim.NewKernel()
	profile := disk.Profile{
		Access:       cfg.DiskAccess,
		SeekPerBlock: cfg.DiskSeekPerBlock,
		MaxSeek:      cfg.DiskMaxSeek,
	}
	e := &Engine{
		cfg:    cfg,
		k:      k,
		pat:    pat,
		layout: interleave.NewWithStrategy(cfg.Layout, pat.FileBlocks, cfg.Disks, cfg.BlockSize),
		disks:  disk.NewArray(k, cfg.Disks, profile, cfg.DiskSched),
		res: &Result{
			Config:       cfg,
			PerProc:      make([]ProcStats, cfg.Procs),
			ReadTimeHist: metrics.NewHistogram(0, 2, 60),
		},
	}
	maxPF := 0
	perNode := 0
	if cfg.Prefetch {
		maxPF = cfg.Procs * cfg.PrefetchBuffersPerProc
		if cfg.PerNodePrefetchLimit {
			perNode = cfg.PrefetchBuffersPerProc
		}
		e.src = prefetch.New(cfg.Predictor, pat, cfg.Lead)
	}
	e.bcache = cache.New(k, cache.Options{
		DemandFrames:         cfg.Procs * cfg.RUSetSize,
		PrefetchFrames:       maxPF,
		Nodes:                cfg.Procs,
		MaxPerNodePrefetched: perNode,
		// On-the-fly predictors mispredict; their mistakes must be
		// evictable or they would permanently clog the prefetch pool.
		EvictablePrefetched: cfg.Predictor != prefetch.Oracle,
	})
	e.inCache = e.bcache.Contains
	if e.src != nil {
		// A failed prefetch fill removes a block the oracle's monotone
		// cursor may have verified while the transfer was in flight;
		// the source queues it to be scanned again.
		e.bcache.SetPrefetchDemoteHook(e.src.Demote)
	}
	if cfg.Sync != barrier.None {
		e.bar = barrier.New(k, cfg.Procs)
		if cfg.NodeFault.BarrierTimeout > 0 {
			e.bar.SetTimeout(cfg.NodeFault.BarrierTimeout)
		}
	}
	genEvery := 0
	if cfg.Sync == barrier.EveryNTotal {
		genEvery = cfg.SyncEveryTotal
	}
	e.gens = barrier.NewGenCounter(genEvery)
	if cfg.Fault.Enabled() {
		e.inj = fault.New(cfg.Fault, cfg.Disks)
		e.disks.SetFaults(e.inj)
	}
	if cfg.NodeFault.Enabled() {
		e.ninj = fault.NewNodes(cfg.NodeFault, cfg.Procs)
		e.bpGate = cfg.NodeFault.Backpressure
	}
	if cfg.Domain.Enabled() {
		e.dinj = fault.NewDomains(cfg.Domain)
		kills, at := e.dinj.DiskKills()
		for _, di := range kills {
			e.disks.ScheduleKill(di, at)
		}
		for i := 0; i < cfg.Disks; i++ {
			if start, end, factor, ok := e.dinj.Storm(i); ok {
				e.disks.SetStorm(i, start, end, factor)
			}
		}
	}
	e.diskDeaths = e.inj != nil || (e.dinj != nil && cfg.Domain.KillsDisks())
	if e.diskDeaths {
		// Dead disks fail fills, so reads need the retry machinery even
		// without a per-disk injector.
		e.retry = cfg.Retry
		if !e.retry.Enabled() {
			e.retry = fault.DefaultRetry()
		}
	}
	for node := 0; node < cfg.Procs; node++ {
		e.res.PerProc[node].Node = int32(node)
	}
	e.obs = cfg.Obs
	k.SetObserver(cfg.Obs)
	return e, nil
}

// Run executes the experiment to completion and returns the collected
// measurements. It must be called at most once per Engine.
func (e *Engine) Run() *Result {
	defer e.dumpFlightOnPanic()
	e.armNodeFaults()
	e.armDomainFaults()
	// The backoff-jitter streams derive from the fault seed, or from
	// the domain seed when only a domain kill takes disks down.
	jitterSeed := e.cfg.Fault.Seed
	if e.inj == nil {
		jitterSeed = e.cfg.Domain.Seed
	}
	e.cnodes = make([]cnode, e.cfg.Procs)
	// Per-node slices come from one slab each, not one allocation per
	// node: the RU sets, and the jitter streams when a disk can die.
	ru := e.cfg.RUSetSize
	ruSlab := make([]*cache.Buffer, e.cfg.Procs*ru)
	var jitter []rng.Source
	if e.diskDeaths {
		jitter = make([]rng.Source, e.cfg.Procs)
	}
	for i := range e.cnodes {
		n := &e.cnodes[i]
		n.e = e
		n.id = i
		n.rng = rng.Make(e.cfg.Seed, uint64(i)+1000)
		if e.diskDeaths {
			jitter[i] = fault.RetryJitterStream(jitterSeed, i)
			n.retryRNG = &jitter[i]
		}
		n.ru.bufs = ruSlab[i*ru : i*ru : (i+1)*ru]
		n.pc = cpcMain
		// Start every node at t=0 through the event queue, in node
		// order.
		e.k.ScheduleWake(0, n)
	}
	if e.cfg.AuditEvery > 0 {
		e.aud = e.buildAuditor()
		e.aud.Start()
	}
	e.k.Run()
	if err := e.deadlock(); err != nil {
		panic(err)
	}
	if e.aud != nil {
		e.aud.Sweep()
	}
	return e.collectResult()
}

// flightDumper is implemented by sinks that keep a crash flight
// recorder (telemetry.Sink). Discovered by assertion so core does not
// depend on the telemetry package.
type flightDumper interface{ DumpFlight(cause any) }

// dumpFlightOnPanic gives the observability sink its last word when a
// run dies: any panic crossing Engine.Run — a deadlock, an audit
// Violation, an exhausted retry policy — is handed to the sink's flight
// recorder before being re-raised, so cluster-scale failures arrive
// with their last-N-events context instead of a bare stack.
func (e *Engine) dumpFlightOnPanic() {
	r := recover()
	if r == nil {
		return
	}
	if fd, ok := e.obs.(flightDumper); ok {
		fd.DumpFlight(r)
	}
	panic(r)
}

// collectResult fills the Result's run-wide measurements once the
// kernel has drained.
func (e *Engine) collectResult() *Result {
	e.res.TotalTime = sim.Duration(e.maxFinish)
	e.res.Cache = e.bcache.Stats()
	e.res.DiskResponse = e.disks.ResponseStats()
	e.res.DiskQueueDelay = e.disks.QueueDelayStats()
	e.res.DiskUtilization = e.disks.MeanUtilization(e.maxFinish)
	e.res.Faults.Disk = e.disks.FaultStats()
	e.res.Faults.AliveDisks = e.disks.AliveCount()
	if e.bar != nil {
		e.res.Faults.Node.QuorumReleases = e.bar.QuorumReleases()
		e.res.Faults.Node.Excisions = len(e.bar.Excisions())
		if t := e.bar.FirstQuorumAt(); t > 0 {
			e.res.Faults.Node.FirstQuorumAtMillis = sim.Duration(t).Millis()
		}
	}
	nf := &e.res.Faults.Node
	nf.AliveProcs = e.cfg.Procs - nf.DeadProcs
	// The degraded window — MTTR in a run that ends rather than
	// repairs — is kill landing to last survivor finish.
	if nf.DeadProcs > 0 && nf.KilledAtMillis > 0 {
		nf.DegradedMillis = e.res.TotalTime.Millis() - nf.KilledAtMillis
	}
	return e.res
}

// armNodeFaults schedules the node-fault events that fire at a
// configured virtual time — the processor kill and the cache-capacity
// squeeze — before the nodes start. With no node faults this is a
// no-op and the run is byte-identical to the pre-fault engine.
func (e *Engine) armNodeFaults() {
	if e.ninj == nil {
		return
	}
	if kn, at, ok := e.ninj.Kills(); ok {
		e.orphansPosted = sim.NewEvent(e.k).SetLabel("orphaned work posted")
		e.k.Schedule(sim.Time(at), func() { e.cnodes[kn].dead = true })
	}
	ncfg := e.ninj.Config()
	if ncfg.SqueezeAt > 0 {
		e.k.Schedule(sim.Time(ncfg.SqueezeAt), func() {
			e.res.Faults.Node.FramesRetired += e.bcache.Squeeze(ncfg.SqueezeFrames)
		})
	}
}

// armDomainFaults schedules the failure-domain node kill: every node
// of the killed domain goes dead at the event's virtual time, and each
// crashes out (cAbandon) at its next read boundary. The
// domain's disk kills are scheduled at construction, with the disks.
func (e *Engine) armDomainFaults() {
	if e.dinj == nil {
		return
	}
	if nodes, at := e.dinj.NodeKills(); len(nodes) > 0 {
		e.k.Schedule(sim.Time(at), func() {
			for _, kn := range nodes {
				e.cnodes[kn].dead = true
			}
		})
	}
}

// prefetchAllowed is the backpressure gate beginAction consults when
// NodeFault.Backpressure is set: an idle wait hosts no action while the
// prefetch buffer class has neither a free nor a reclaimable frame, so
// cache pressure throttles the prefetcher instead of sending it on
// fruitless (and costly) buffer hunts.
func (e *Engine) prefetchAllowed() bool {
	if e.bcache.AvailableFrames(cache.PrefetchClass) > 0 {
		return true
	}
	e.res.Faults.Node.ThrottledPrefetches++
	if e.obs != nil {
		e.obs.Add(obs.CtrPrefetchThrottled, 1)
	}
	return false
}

// KillError returns the wrapped fault.ErrProcDead describing the last
// processor kill this run executed, or nil if no processor died.
func (e *Engine) KillError() error {
	if e.res.Faults.Node.DeadProcs == 0 {
		return nil
	}
	return fmt.Errorf("core: node %d abandoned %d unread block(s): %w",
		e.lastKilled, e.lastOrphaned, fault.ErrProcDead)
}

// Run builds and executes one experiment.
func Run(cfg Config) (*Result, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(), nil
}

// MustRun is Run for configurations known to be valid.
func MustRun(cfg Config) *Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// usesGenerations reports whether the sync style is driven by a global
// generation counter rather than per-process arrival points.
func (e *Engine) usesGenerations() bool {
	switch e.cfg.Sync {
	case barrier.EveryNTotal:
		return true
	case barrier.PerPortion:
		return e.pat.Kind.Global()
	}
	return false
}

// nextRead claims the node's next access: its own next string entry
// for local patterns, or the next unclaimed entry of the shared string
// for global patterns (self-scheduling).
func (e *Engine) nextRead(n *cnode) (idx, block int, ok bool) {
	cursor := &n.localCursor
	if e.pat.Kind.Global() {
		cursor = &e.globalCursor
	}
	portions := e.pat.Portions(n.id)
	if idx = int(*cursor); idx >= pattern.Len(portions) {
		return 0, 0, false
	}
	*cursor++
	return idx, pattern.BlockAt(portions, idx), true
}

// portionEnded reports whether reference-string index idx is the last
// access of its portion.
func (e *Engine) portionEnded(node, idx int) bool {
	portions := e.pat.Portions(node)
	return idx == portions[pattern.PortionOf(portions, idx)].End()-1
}

// beginAction performs the first half of one prefetch action in kernel
// context: select a block, claim a frame, start the I/O (without
// waiting for it), and price the work under the NUMA cost model. It
// returns ok=false when there is nothing to do — the backpressure gate
// refuses, there is no candidate block, or the MinPrefetchTime
// heuristic suppresses the action — and the action's duration when one
// (successful or failed) is under way; finishAction completes it after
// that duration elapses.
func (e *Engine) beginAction(n *cnode, deadline sim.Time) (sim.Duration, bool) {
	node := n.id
	if e.bpGate && !e.prefetchAllowed() {
		return 0, false
	}
	now := e.k.Now()
	if e.cfg.MinPrefetchTime > 0 && deadline != sim.MaxTime {
		if deadline.Sub(now) < e.cfg.MinPrefetchTime {
			return 0, false
		}
	}
	// The prefetched-unused limits are O(1) shared counters, so the file
	// system declines cheaply when they are exhausted ("considers
	// prefetching" without starting an action). Frame scarcity, by
	// contrast, is only discovered by hunting through the buffer lists —
	// an expensive unsuccessful action, the mechanism behind the paper's
	// lfp slowdowns.
	switch e.bcache.CanPrefetch(node) {
	case cache.FailGlobalLimit, cache.FailNodeLimit:
		return 0, false
	}
	block, ok := e.src.Next(node, e.inCache)
	if !ok {
		return 0, false
	}
	n.actionStart = now
	e.res.PerProc[node].PrefetchAttempts++
	if e.obs != nil {
		e.obs.Add(obs.CtrPrefetchActions, 1)
		n.actionBlock = int32(block)
	}
	buf, res := e.bcache.AllocatePrefetch(node, block)
	var cost memory.Cost
	if res == cache.PrefetchOK {
		dsk, phys := e.place(block)
		req := e.disks.Submit(dsk, block, phys, true)
		// A failed speculative fill demotes silently in the cache; the
		// block is refetched on demand if ever actually read.
		e.bcache.BeginFetchFrom(buf, &req.Complete, req.EstDone, req)
		e.res.PerProc[node].PrefetchesIssued++
		cost = e.cfg.Memory.PrefetchAction
	} else {
		cost = e.cfg.Memory.PrefetchFail
	}
	if e.obs != nil {
		n.actionIssued = res == cache.PrefetchOK
	}
	others := e.track.Enter()
	return e.price(node, cost, others), true
}

// price prices one memory action for the node under the node-fault
// slowdowns (persistent straggler factor, transient stalls); without a
// node injector it is exactly the cost model's contention price. Every
// action consumes at least one microsecond even under a zero-cost
// model, which guarantees the idle-time prefetch loop always advances
// virtual time.
func (e *Engine) price(node int, c memory.Cost, others int) sim.Duration {
	if e.dinj != nil {
		c = e.dinj.ScaleNode(node, c)
	}
	var d sim.Duration
	if e.ninj == nil {
		d = c.At(others)
	} else {
		var drew, stalled bool
		d, drew, stalled = e.ninj.ScaleAction(node, c, others)
		if stalled {
			e.res.Faults.Node.Stalls++
		}
		if drew && e.obs != nil {
			if stalled {
				e.obs.Add(obs.CtrNodeStalls, 1)
			}
			e.obs.Add(obs.CtrFaultDraws, 1)
		}
	}
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	return d
}

// finishAction completes the action begun by beginAction: the processor
// leaves the file system (releasing its contention slot) and the
// action's elapsed time is recorded.
func (e *Engine) finishAction(n *cnode) {
	e.track.Exit()
	e.res.PrefetchActionTime.Add(e.k.Now().Sub(n.actionStart).Millis())
	if e.obs != nil {
		var arg int64
		if n.actionIssued {
			arg = 1
		}
		e.obs.Span(obs.Span{
			Track: obs.ProcTrack(n.id), Kind: obs.SpanPrefetchAction,
			Start: int64(n.actionStart), End: int64(e.k.Now()),
			Block: int(n.actionBlock), Arg: arg,
		})
	}
}
