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
	"repro/internal/predict"
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
	policy *prefetch.Policy  // oracle policy; nil unless prefetching with Oracle
	pred   predict.Predictor // on-the-fly predictor; nil unless selected
	bar    *barrier.Barrier
	gens   *barrier.GenCounter
	track  memory.Tracker
	res    *Result

	// Fault injection (nil/zero unless cfg.Fault.Enabled()): the
	// injector wired into the disks and the effective retry policy;
	// each node's backoff-jitter stream lives in its nodeState.
	inj   *fault.Injector
	retry fault.RetryPolicy

	// Failure-domain injection (nil unless cfg.Domain.Enabled()), and
	// whether any disk can die this run (per-disk injector kill or a
	// domain kill) — the gate for the degraded-remap check in place.
	dinj       *fault.DomainInjector
	diskDeaths bool

	// Node-level fault injection (nil/zero unless
	// cfg.NodeFault.Enabled()): the per-processor injector, the kill
	// bookkeeping (whether a kill is armed, the FIFO of blocks the
	// victim abandoned and the event announcing it), the wrapped
	// fault.ErrProcDead describing an executed kill, and the auditor
	// itself (nil unless cfg.AuditEvery > 0).
	ninj          *fault.NodeInjector
	bpGate        bool
	killArmed     bool
	orphans       []int
	orphansPosted *sim.Event
	killErr       error
	aud           *audit.Auditor

	// Observability sink (nil unless cfg.Obs is set).
	obs obs.Sink

	// nodes holds all mutable per-node state in one flat,
	// index-addressed array — cursor, finish/death flags, the prefetch
	// scheduler and its action-in-flight bookkeeping, the fault-retry
	// jitter stream — replacing the per-concern parallel slices that
	// used to scatter a node's state across eight allocations. One
	// cache line each, no pointer web to chase at 100k+ nodes.
	nodes []nodeState

	// cnodes is the compact engine's node population (nil unless
	// cfg.CompactNodes): one flat record per processor, no goroutines.
	cnodes []cnode

	globalCursor int
	maxFinish    sim.Time
}

// nodeState is the engine's per-node record. Fields pack by size; the
// struct stays well under a cache line pair so cluster-scale runs pay
// ~100 bytes of engine state per node plus what the node actually
// pins.
type nodeState struct {
	sched       *prefetch.Scheduler // nil when not prefetching
	retryRNG    *rng.Source         // backoff jitter; nil without disk faults
	localCursor int                 // next index into pat.Local[node]
	actionBlock int                 // block of the action in flight (obs only)
	actionStart sim.Time            // start of the action in flight

	finished     bool // clean finish recorded (invariant auditor)
	dead         bool // kill fired for this node
	actionIssued bool // action in flight allocated a frame (obs only)
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
		disks:  disk.NewScheduledArray(k, cfg.Disks, profile, cfg.DiskSched),
		nodes:  make([]nodeState, cfg.Procs),
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
		if cfg.Predictor == predict.Oracle {
			e.policy = prefetch.NewPolicy(pat, cfg.Lead)
			// The forward-only scan cursor is exact only when every
			// drop of a block ahead of the demand cursor is reported
			// back to the policy and the string never repeats a block;
			// see SetMonotone. Fault injection stays exact through the
			// prefetch-demote hook wired below — without the cursor,
			// chaos cells pay an O(prefetch buffers) cache walk per
			// selection and cluster-scale runs turn quadratic in the
			// node count.
			if cfg.Lead == 0 && pat.Kind.Global() {
				e.policy.SetMonotone(true)
			}
		} else {
			e.pred = predict.New(cfg.Predictor, cfg.Procs, pat.FileBlocks)
		}
	}
	e.bcache = cache.New(k, cache.Options{
		DemandFrames:         cfg.Procs * cfg.RUSetSize,
		PrefetchFrames:       maxPF,
		Nodes:                cfg.Procs,
		MaxPrefetchedUnused:  maxPF,
		MaxPerNodePrefetched: perNode,
		// On-the-fly predictors mispredict; their mistakes must be
		// evictable or they would permanently clog the prefetch pool.
		EvictablePrefetched: e.pred != nil,
	})
	if e.policy != nil && cfg.Lead == 0 && pat.Kind.Global() {
		// The monotone cursor's one blind spot: a failed prefetch fill
		// removes a block the scan may have verified while the
		// transfer was in flight. The hook rolls the cursor back.
		e.bcache.SetPrefetchDemoteHook(e.policy.Demote)
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
		e.retry = cfg.Retry
		if !e.retry.Enabled() {
			e.retry = fault.DefaultRetry()
		}
		e.disks.SetFaults(e.inj)
		for node := range e.nodes {
			e.nodes[node].retryRNG = e.inj.RetryStream(node)
		}
	}
	if cfg.NodeFault.Enabled() {
		e.ninj = fault.NewNodes(cfg.NodeFault, cfg.Procs)
		e.bpGate = cfg.NodeFault.Backpressure
	}
	if cfg.Domain.Enabled() {
		e.dinj = fault.NewDomains(cfg.Domain)
		if kills, at := e.dinj.DiskKills(); len(kills) > 0 {
			for _, di := range kills {
				e.disks.ScheduleKill(di, at)
			}
			// Dead disks fail fills, so reads need the retry machinery
			// even without a per-disk injector; the backoff-jitter
			// streams derive from the domain seed in that case.
			if e.inj == nil {
				e.retry = cfg.Retry
				if !e.retry.Enabled() {
					e.retry = fault.DefaultRetry()
				}
				for node := range e.nodes {
					e.nodes[node].retryRNG = fault.RetryJitterStream(cfg.Domain.Seed, node)
				}
			}
		}
		for i := 0; i < cfg.Disks; i++ {
			if start, end, factor, ok := e.dinj.Storm(i); ok {
				e.disks.SetStorm(i, start, end, factor)
			}
		}
	}
	e.diskDeaths = e.inj != nil || (e.dinj != nil && cfg.Domain.KillsDisks())
	for node := 0; node < cfg.Procs; node++ {
		e.res.PerProc[node].Node = node
	}
	if cfg.Obs != nil {
		e.obs = cfg.Obs
		// A sink that understands virtual time (telemetry.Sink) gets
		// the kernel clock, so counter increments — which carry no
		// timestamp of their own — can be attributed to the window
		// they occur in rather than the last span seen.
		if ck, ok := cfg.Obs.(interface{ SetClock(func() int64) }); ok {
			ck.SetClock(func() int64 { return int64(k.Now()) })
		}
		k.SetObserver(cfg.Obs)
		e.disks.SetObserver(cfg.Obs)
		e.bcache.SetObserver(cfg.Obs)
		if e.bar != nil {
			e.bar.SetObserver(cfg.Obs)
		}
		if e.inj != nil {
			e.inj.SetObserver(cfg.Obs)
		}
		if e.ninj != nil {
			e.ninj.SetObserver(cfg.Obs)
		}
	}
	return e, nil
}

// Run executes the experiment to completion and returns the collected
// measurements. It must be called at most once per Engine.
func (e *Engine) Run() *Result {
	defer e.dumpFlightOnPanic()
	if e.cfg.CompactNodes {
		return e.runCompact()
	}
	prefetching := e.policy != nil || e.pred != nil
	e.armNodeFaults()
	e.armDomainFaults()
	for node := 0; node < e.cfg.Procs; node++ {
		node := node
		p := e.k.Spawn(fmt.Sprintf("proc%d", node), 0, func(p *sim.Proc) {
			e.procBody(p, node)
		})
		if prefetching {
			sched := prefetch.NewScheduler(e.k, p,
				func(deadline sim.Time) (sim.Duration, bool) { return e.beginAction(node, deadline) },
				func() { e.finishAction(node) })
			if e.obs != nil {
				sched.SetObserver(e.obs)
			}
			if e.ninj != nil && e.ninj.Config().Backpressure {
				sched.SetGate(e.prefetchAllowed)
			}
			e.nodes[node].sched = sched
		}
	}
	if e.cfg.AuditEvery > 0 {
		e.aud = e.buildAuditor()
		e.aud.Start()
	}
	e.k.Run()
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
// run dies: any panic crossing Engine.Run — the kernel's deadlock
// detector, an audit Violation, a compact-node stall — is handed to
// the sink's flight recorder before being re-raised, so cluster-scale
// failures arrive with their last-N-events context instead of a bare
// stack. Deferred from Run so it covers both engines and every panic
// path through the kernel.
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
// kernel has drained; shared by the goroutine and compact engines.
func (e *Engine) collectResult() *Result {
	e.res.TotalTime = sim.Duration(e.maxFinish)
	e.res.Cache = e.bcache.Stats()
	e.res.DiskResponse = e.disks.ResponseStats()
	e.res.DiskQueueDelay = e.disks.QueueDelayStats()
	e.res.DiskUtilization = e.disks.MeanUtilization(e.maxFinish)
	e.res.Faults.Disk = e.disks.FaultStats()
	e.res.Faults.AliveDisks = e.disks.AliveCount()
	if e.ninj != nil {
		e.res.Faults.Node.Stalls = e.ninj.Stalls()
	}
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
// squeeze — before the processes start. With no node faults this is a
// no-op and the run is byte-identical to the pre-fault engine.
func (e *Engine) armNodeFaults() {
	if e.ninj == nil {
		return
	}
	if kn, at, ok := e.ninj.Kills(); ok {
		e.killArmed = true
		e.orphansPosted = sim.NewEvent(e.k).SetLabel("orphaned work posted")
		e.k.Schedule(sim.Time(at), func() { e.nodes[kn].dead = true })
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
// crashes out (abandon / cAbandon) at its next read boundary. The
// domain's disk kills are scheduled at construction, with the disks.
func (e *Engine) armDomainFaults() {
	if e.dinj == nil {
		return
	}
	nodes, at := e.dinj.NodeKills()
	if len(nodes) == 0 {
		return
	}
	e.killArmed = true
	e.k.Schedule(sim.Time(at), func() {
		for _, kn := range nodes {
			e.nodes[kn].dead = true
		}
	})
}

// prefetchAllowed is the backpressure gate installed on every prefetch
// scheduler when NodeFault.Backpressure is set: an idle wait hosts no
// action while the prefetch buffer class has neither a free nor a
// reclaimable frame, so cache pressure throttles the prefetcher
// instead of sending it on fruitless (and costly) buffer hunts.
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

// KillError returns the wrapped fault.ErrProcDead describing the
// processor kill this run executed, or nil if no processor died.
func (e *Engine) KillError() error { return e.killErr }

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

// procBody is the synthetic application run by each processor: claim the
// next block of the access pattern, read it through the file system,
// simulate computation, and synchronize per the configured style.
func (e *Engine) procBody(p *sim.Proc, node int) {
	computeRNG := rng.New(e.cfg.Seed, uint64(node)+1000)
	ru := newRUSet(e.cfg.RUSetSize)
	passedGens := 0
	myReads := 0
	for {
		if e.killArmed && e.nodes[node].dead {
			e.abandon(p, node, ru, myReads)
			return
		}
		if e.usesGenerations() {
			for passedGens < e.gens.Raised() {
				passedGens++
				e.syncArrive(p, node)
			}
		}
		idx, block, ok := e.nextRead(node)
		if !ok {
			break
		}
		e.readBlock(p, node, ru, idx, block)
		myReads++
		e.gens.ReadDone()
		portionEnded := e.portionEnded(node, idx)
		if e.cfg.Sync == barrier.PerPortion && e.pat.Kind.Global() && portionEnded {
			e.gens.Raise()
		}
		if d := e.cfg.ComputeMean; d > 0 {
			cstart := p.Now()
			p.Advance(sim.Millis(computeRNG.Exp(d.Millis())))
			if e.obs != nil {
				e.obs.Span(obs.Span{
					Track: obs.ProcTrack(node), Kind: obs.SpanCompute,
					Start: int64(cstart), End: int64(p.Now()), Block: -1,
				})
			}
		}
		switch {
		case e.cfg.Sync == barrier.EveryNPerProc && myReads%e.cfg.SyncEveryPerProc == 0:
			e.syncArrive(p, node)
		case e.cfg.Sync == barrier.PerPortion && e.pat.Kind.Local() && portionEnded:
			e.syncArrive(p, node)
		}
	}
	ru.drain(e.bcache)
	if e.usesGenerations() {
		for passedGens < e.gens.Raised() {
			passedGens++
			e.syncArrive(p, node)
		}
	}
	if e.bar != nil {
		e.bar.Withdraw(node)
	}
	if e.orphansPosted != nil {
		e.takeover(p, node, ru, &myReads)
	}
	e.res.PerProc[node].Reads = myReads
	e.res.PerProc[node].Finish = p.Now()
	if p.Now() > e.maxFinish {
		e.maxFinish = p.Now()
	}
	e.nodes[node].finished = true
}

// abandon is a killed processor's exit: it unpins what it holds, posts
// its unread blocks for survivors to claim, records its stats, and
// returns without withdrawing from the barrier — crash semantics. Its
// barrier membership is recovered by the quorum watchdog (when armed)
// rather than a clean withdrawal, so a kill under synchronization
// without a barrier timeout deadlocks the survivors by design.
func (e *Engine) abandon(p *sim.Proc, node int, ru *ruSet, myReads int) {
	ru.drain(e.bcache)
	var orphaned int
	if e.pat.Kind.Local() {
		c := e.nodes[node].localCursor
		orphaned = len(e.pat.Local[node]) - c
		e.orphans = append(e.orphans, e.pat.Local[node][c:]...)
		e.nodes[node].localCursor = len(e.pat.Local[node])
	}
	e.killErr = fmt.Errorf("core: node %d abandoned %d unread block(s): %w",
		node, orphaned, fault.ErrProcDead)
	e.res.Faults.Node.DeadProcs++
	if e.res.Faults.Node.KilledAtMillis == 0 {
		e.res.Faults.Node.KilledAtMillis = sim.Duration(p.Now()).Millis()
	}
	e.res.PerProc[node].Reads = myReads
	e.res.PerProc[node].Finish = p.Now()
	if p.Now() > e.maxFinish {
		e.maxFinish = p.Now()
	}
	// Domain kills (global patterns only, no takeover FIFO) never
	// create the orphan event; a single-victim NodeFault kill always
	// does. Domain kills also take several victims, so guard the Fire.
	if e.orphansPosted != nil && !e.orphansPosted.Fired() {
		e.orphansPosted.Fire()
	}
}

// takeover is the survivors' side of a processor kill: once a
// survivor's own workload is done (and it has withdrawn from the
// barrier), it waits for the victim's unread blocks to be posted and
// reads them, claiming one at a time from a shared FIFO so the load
// spreads over however many survivors are free. Only local patterns
// post orphans — a global pattern's unclaimed entries are drained by
// the surviving self-scheduled readers with no special handling. The
// designated victim, if it finished its whole workload before the kill
// landed, posts an empty set so survivors do not wait forever.
func (e *Engine) takeover(p *sim.Proc, node int, ru *ruSet, myReads *int) {
	if kn, _, _ := e.ninj.Kills(); node == kn {
		if !e.orphansPosted.Fired() {
			e.orphansPosted.Fire()
		}
		return
	}
	if !e.orphansPosted.Fired() {
		e.orphansPosted.Wait(p)
	}
	for len(e.orphans) > 0 {
		block := e.orphans[0]
		e.orphans = e.orphans[1:]
		e.readBlock(p, node, ru, -1, block)
		*myReads++
		e.res.Faults.Node.TakeoverReads++
		if e.obs != nil {
			e.obs.Add(obs.CtrTakeoverReads, 1)
		}
	}
	ru.drain(e.bcache)
}

// nextRead claims the next access: the process's own next string entry
// for local patterns, or the next unclaimed entry of the shared string
// for global patterns (self-scheduling).
func (e *Engine) nextRead(node int) (idx, block int, ok bool) {
	if e.pat.Kind.Global() {
		if e.globalCursor >= len(e.pat.Global) {
			return 0, 0, false
		}
		idx = e.globalCursor
		e.globalCursor++
		return idx, e.pat.Global[idx], true
	}
	c := e.nodes[node].localCursor
	if c >= len(e.pat.Local[node]) {
		return 0, 0, false
	}
	e.nodes[node].localCursor = c + 1
	return c, e.pat.Local[node][c], true
}

// portionEnded reports whether reference-string index idx is the last
// access of its portion.
func (e *Engine) portionEnded(node, idx int) bool {
	portions := e.pat.GlobalPortions
	if e.pat.Kind.Local() {
		portions = e.pat.LocalPortions[node]
	}
	por := portions[pattern.PortionOf(portions, idx)]
	return idx == por.End()-1
}

// readBlock performs one file system read: cache lookup, demand fetch on
// a miss, and waiting (with idle-time prefetching) when the data are not
// yet present.
func (e *Engine) readBlock(p *sim.Proc, node int, ru *ruSet, idx, block int) {
	start := p.Now()
	e.trace(Event{T: start, Node: node, Kind: EvReadStart, Block: block, Index: idx})
	// Toss-immediately: make room in the RU set before acquiring, so a
	// processor never pins more than RUSetSize buffers.
	ru.makeRoom(e.bcache)
	if e.policy != nil && idx >= 0 {
		// Takeover reads (idx -1) replay another node's blocks; they
		// carry no reference-string position for the oracle to note.
		e.policy.NoteDemand(node, idx)
	}
	if e.pred != nil {
		e.pred.ObserveDemand(node, block)
	}
	var buf *cache.Buffer
	attempts := 0
	for {
		if buf = e.bcache.Lookup(block); buf != nil {
			ready := e.bcache.Pin(node, buf)
			e.fsWork(p, node, e.cfg.Memory.Hit)
			if buf.Home() != node {
				// NUMA: the buffer lives on the fetching node's memory.
				e.fsWork(p, node, e.cfg.Memory.RemoteBuffer)
			}
			if ready {
				e.trace(Event{T: p.Now(), Node: node, Kind: EvReadyHit, Block: block, Index: idx})
				e.res.HitWaitAll.Add(0)
			} else {
				e.trace(Event{T: p.Now(), Node: node, Kind: EvUnreadyHit, Block: block, Index: idx})
				wait := e.waitEvent(p, node, block, buf.IODone, buf.FetchDone(), IdleRemoteIO)
				e.res.HitWaitAll.Add(wait.Millis())
				e.res.HitWaitUnready.Add(wait.Millis())
				if buf.FillErr() != nil {
					// The fill we piled onto failed; back off and retry.
					e.failedRead(p, node, buf, block, &attempts)
					continue
				}
			}
			break
		}
		// Miss: pay the demand-fetch setup cost, then claim a frame and
		// start the transfer. The block may appear while the setup cost
		// elapses (another process fetched it) — then it is a hit.
		e.fsWork(p, node, e.cfg.Memory.Miss)
		if e.bcache.Lookup(block) != nil {
			continue
		}
		nbuf := e.bcache.AllocateDemand(node, block)
		if nbuf == nil {
			fwStart := p.Now()
			e.bcache.Freed.Sleep(p)
			if e.obs != nil {
				e.obs.Span(obs.Span{
					Track: obs.ProcTrack(node), Kind: obs.SpanFrameWait,
					Start: int64(fwStart), End: int64(p.Now()), Block: block,
				})
			}
			continue
		}
		dsk, phys := e.place(block)
		req := e.disks.Submit(dsk, block, phys, false)
		e.bcache.BeginFetchFrom(nbuf, &req.Complete, req.EstDone, req)
		e.trace(Event{T: p.Now(), Node: node, Kind: EvDemandFetch, Block: block, Index: idx})
		e.waitEvent(p, node, block, nbuf.IODone, req.EstDone, IdleOwnIO)
		if nbuf.FillErr() != nil {
			e.failedRead(p, node, nbuf, block, &attempts)
			continue
		}
		buf = nbuf
		break
	}
	ru.add(buf)
	rt := p.Now().Sub(start)
	e.res.ReadTime.Add(rt.Millis())
	e.res.ReadTimeHist.Add(rt.Millis())
	e.res.PerProc[node].ReadTime.Add(rt.Millis())
	e.trace(Event{T: p.Now(), Node: node, Kind: EvReadDone, Block: block, Index: idx})
	if e.obs != nil {
		e.obs.Span(obs.Span{
			Track: obs.ProcTrack(node), Kind: obs.SpanRead,
			Start: int64(start), End: int64(p.Now()), Block: block,
		})
	}
}

// syncArrive takes the process through one barrier generation,
// prefetching while it waits.
func (e *Engine) syncArrive(p *sim.Proc, node int) {
	arrival := p.Now()
	e.trace(Event{T: arrival, Node: node, Kind: EvSyncArrive, Block: -1, Index: -1})
	ev, last := e.bar.Arrive(node)
	if !last {
		e.waitEvent(p, node, -1, ev, sim.MaxTime, IdleSync)
	}
	wait := ev.FiredAt().Sub(arrival)
	e.res.SyncTime.Add(wait.Millis())
	e.res.PerProc[node].SyncWait.Add(wait.Millis())
	e.trace(Event{T: p.Now(), Node: node, Kind: EvSyncRelease, Block: -1, Index: -1})
}

// waitEvent is the heart of idle-time prefetching (§III): while the
// process is logically idle waiting for ev, the local file system
// component repeatedly performs prefetch actions, releasing control only
// at the completion of an action. An action that runs past the firing
// of ev delays the process's resumption — the prefetch overrun.
// deadline is the file system's estimate of when the idle period ends
// (known exactly for disk waits, unknown — MaxTime — for sync waits);
// it gates the MinPrefetchTime heuristic. The return value is the
// logical wait: from call to event firing.
//
// The prefetch actions themselves run as the node's Scheduler chain in
// kernel context (see prefetch.Scheduler); the process parks once for
// the whole wait rather than once per action.
//
// The wait's span runs from the call to the actual resume — so a
// prefetch action that overruns the event stays nested inside it — and
// carries the logical wait in Arg. block is the awaited block, or -1
// for sync waits.
func (e *Engine) waitEvent(p *sim.Proc, node, block int, ev *sim.Event, deadline sim.Time, kind IdleKind) sim.Duration {
	start := p.Now()
	if ev.Fired() {
		return 0
	}
	var logical sim.Duration
	if e.nodes[node].sched == nil {
		ev.Wait(p)
		logical = p.Now().Sub(start)
	} else {
		ranAction := e.nodes[node].sched.Wait(ev, deadline)
		logical = ev.FiredAt().Sub(start)
		if ranAction {
			over := p.Now().Sub(ev.FiredAt())
			if over < 0 {
				over = 0
			}
			e.res.Overrun.Add(over.Millis())
		}
	}
	e.res.IdleTime[kind].Add(logical.Millis())
	if e.obs != nil {
		var sk obs.SpanKind
		switch kind {
		case IdleSync:
			sk = obs.SpanSyncWait
		case IdleOwnIO:
			sk = obs.SpanDemandWait
		default:
			sk = obs.SpanHitWait
		}
		e.obs.Span(obs.Span{
			Track: obs.ProcTrack(node), Kind: sk,
			Start: int64(start), End: int64(p.Now()),
			Block: block, Arg: int64(logical),
		})
	}
	return logical
}

// beginAction performs the first half of one prefetch action in kernel
// context: select a block, claim a frame, start the I/O (without
// waiting for it), and price the work under the NUMA cost model. It
// returns ok=false when there is nothing to do — no candidate block, or
// the MinPrefetchTime heuristic suppresses the action — and the
// action's duration when one (successful or failed) is under way;
// finishAction completes it after that duration elapses.
func (e *Engine) beginAction(node int, deadline sim.Time) (sim.Duration, bool) {
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
	var block, idx int
	var ok bool
	if e.policy != nil {
		block, idx, ok = e.policy.Select(node, e.bcache.Contains)
	} else {
		block, ok = e.pred.Predict(node, e.bcache.Contains)
		idx = -1
	}
	if !ok {
		return 0, false
	}
	e.nodes[node].actionStart = now
	e.res.PerProc[node].PrefetchAttempts++
	if e.obs != nil {
		e.obs.Add(obs.CtrPrefetchActions, 1)
		e.nodes[node].actionBlock = block
	}
	buf, res := e.bcache.AllocatePrefetch(node, block)
	var cost memory.Cost
	if res == cache.PrefetchOK {
		dsk, phys := e.place(block)
		req := e.disks.Submit(dsk, block, phys, true)
		// A failed speculative fill demotes silently in the cache; the
		// block is refetched on demand if ever actually read.
		e.bcache.BeginFetchFrom(buf, &req.Complete, req.EstDone, req)
		e.trace(Event{T: now, Node: node, Kind: EvPrefetchIssue, Block: block, Index: idx})
		e.res.PerProc[node].PrefetchesIssued++
		cost = e.cfg.Memory.PrefetchAction
	} else {
		e.trace(Event{T: now, Node: node, Kind: EvPrefetchFail, Block: block, Index: idx})
		cost = e.cfg.Memory.PrefetchFail
	}
	if e.obs != nil {
		e.nodes[node].actionIssued = res == cache.PrefetchOK
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
	if e.ninj != nil {
		d = e.ninj.ScaleAction(node, c, others)
	} else {
		d = c.At(others)
	}
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	return d
}

// finishAction completes the action begun by beginAction: the processor
// leaves the file system (releasing its contention slot) and the
// action's elapsed time is recorded.
func (e *Engine) finishAction(node int) {
	e.track.Exit()
	n := &e.nodes[node]
	e.res.PrefetchActionTime.Add(e.k.Now().Sub(n.actionStart).Millis())
	if e.obs != nil {
		var arg int64
		if n.actionIssued {
			arg = 1
		}
		e.obs.Span(obs.Span{
			Track: obs.ProcTrack(node), Kind: obs.SpanPrefetchAction,
			Start: int64(n.actionStart), End: int64(e.k.Now()),
			Block: n.actionBlock, Arg: arg,
		})
	}
}

// fsWork charges the processor for one file system operation under the
// NUMA cost model. Contention is the number of *other* processors
// currently executing file system code (not those merely blocked
// waiting for I/O — a blocked processor does not touch the shared data
// structures). Every operation consumes at least one microsecond even
// under a zero-cost model, which guarantees the idle-time prefetch loop
// always advances virtual time (a failed attempt retried at zero cost
// would otherwise spin forever).
func (e *Engine) fsWork(p *sim.Proc, node int, c memory.Cost) {
	others := e.track.Enter()
	d := e.price(node, c, others)
	start := p.Now()
	p.Advance(d)
	e.track.Exit()
	if e.obs != nil {
		e.obs.Span(obs.Span{
			Track: obs.ProcTrack(node), Kind: obs.SpanFSWork,
			Start: int64(start), End: int64(p.Now()),
			Block: -1, Arg: int64(others),
		})
	}
}

func (e *Engine) trace(ev Event) {
	if e.cfg.Trace != nil {
		e.cfg.Trace(ev)
	}
}
