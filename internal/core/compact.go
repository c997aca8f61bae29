package core

import (
	"fmt"

	"repro/internal/barrier"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
)

// The compact engine runs each processor as an event-driven state
// machine in kernel context instead of a spawned goroutine. A goroutine
// costs a 2 KB stack before it executes a single instruction, which
// alone breaks the < 1 KB/node budget a 100k–1M node run needs; a
// cnode is a flat record of ~200 bytes in one contiguous array.
//
// The translation is mechanical: every point where procBody would block
// (an I/O completion, a barrier release, a frame wait) or advance the
// clock (file system work, the computation delay) becomes a program
// counter the node parks at, and the corresponding wake re-enters
// cstep. Idle-time prefetching keeps the Scheduler's chain shape — an
// action's completion timer begins the next action directly — with the
// node's embedded action waiter standing in for the Scheduler.
//
// The compact engine is deterministic (same seed and config give the
// same Result bytes) but not byte-identical to the goroutine engine: a goroutine resumes via a scheduled step event
// while a continuation runs at the instant of the firing itself, so
// same-instant work interleaves differently and the contention counts
// the cost model sees can differ. Validate restricts the mode to the
// configurations the state machine covers (see compactCapabilities in
// config.go): global access patterns, no tracing.
//
// Fault injection is fully supported and keeps the determinism
// property: a failed fill parks the node in an explicit backoff state
// (cpcBackoff) whose jitter comes from the node's own retry stream, a
// dead home disk remaps through place exactly as in the goroutine
// engine, and a node kill crashes the node into a terminal cpcDead
// state at its next read boundary — crash semantics, no barrier
// withdrawal, so a kill under synchronization without a barrier
// timeout deadlocks the survivors by design (and trips the flight
// recorder). Every fault draw comes from per-disk/per-node/per-domain
// streams already aligned to deterministic orders, so results stay
// byte-identical from run to run.

// cpc is a compact node's program counter.
type cpc uint8

const (
	// cpcMain is the application loop head: catch up on raised
	// generations, then claim the next read or finish.
	cpcMain cpc = iota
	// cpcLookup (re)tries the cache lookup for the claimed block.
	cpcLookup
	// cpcHitRemote runs after the hit's fs work: charge the remote
	// buffer cost if the frame lives on another node.
	cpcHitRemote
	// cpcHitBranch splits ready hits from unready (in-flight) hits.
	cpcHitBranch
	// cpcHitWaited resumes after an unready-hit wait.
	cpcHitWaited
	// cpcMissAlloc runs after the miss's fs work: re-check the cache,
	// claim a frame, and start the demand fetch.
	cpcMissAlloc
	// cpcFrameWaited resumes after a buffer-frame wait.
	cpcFrameWaited
	// cpcDemandWaited resumes after the node's own demand fetch.
	cpcDemandWaited
	// cpcReadDone finishes the read: pin into the RU set, record
	// timings, raise generations, start the computation delay.
	cpcReadDone
	// cpcAfterCompute resumes after the computation delay.
	cpcAfterCompute
	// cpcMaybeSync applies the per-proc every-N synchronization style.
	cpcMaybeSync
	// cpcSyncWaited resumes after a barrier release.
	cpcSyncWaited
	// cpcEndGens drains the RU set and catches up on remaining
	// generations before withdrawing.
	cpcEndGens
	// cpcBackoff resumes after a failed read's virtual-time
	// capped-exponential backoff and retries the lookup.
	cpcBackoff
	// cpcDone marks a cleanly finished node.
	cpcDone
	// cpcDead marks a node killed by fault injection — terminal, like
	// cpcDone, but the node crashed out with reads unclaimed.
	cpcDead
)

// cnode is one compact processor. Everything the goroutine engine kept
// on procBody's stack lives here explicitly; the whole population is
// one contiguous []cnode allocation. Word-sized fields come first and
// the byte-sized flags share one trailing slot: at 100k–1M nodes every
// padding hole in this struct is a megabyte.
type cnode struct {
	e  *Engine
	id int

	rng rng.Source // computation-delay stream, by value
	ru  ruSet      // pinned recently-used buffers

	// Current read.
	idx, block int
	readStart  sim.Time
	buf        *cache.Buffer

	myReads    int
	passedGens int

	// The one outstanding event wait (nil when the node is parked on a
	// timer or a frame wait instead).
	waitEv       *sim.Event
	waitStart    sim.Time
	waitDeadline sim.Time
	waitBlock    int
	waitKind     IdleKind
	lastWait     sim.Duration

	// File system work in flight (a timer wake must release the
	// contention slot before the node continues).
	fsStart  sim.Time
	fsOthers int

	frameWaitStart sim.Time
	computeStart   sim.Time

	action cnodeAction

	// attempts counts failed fills of the current read (retry/backoff
	// bookkeeping, reset when a new read is claimed).
	attempts int32

	pc        cpc
	afterSync cpc
	hitReady  bool
	ranAction bool
	inFSWork  bool
}

// cnodeAction is the node's prefetch-action completion waiter — the
// second waiter identity a node needs, since an action timer runs
// concurrently with the node's own event wait.
type cnodeAction struct{ n *cnode }

// Wake finishes the in-flight prefetch action (sim.Waiter).
func (a *cnodeAction) Wake() { a.n.e.cActionWake(a.n) }

// Wake re-enters the node's state machine (sim.Waiter): event fired,
// timer elapsed, or frame freed.
func (n *cnode) Wake() { n.e.cWake(n) }

// ScaleConfig returns the cluster-scale configuration the -scale sweep
// and the scale benchmarks share: n compact nodes over the given disk
// count on the paper's parameters, a global-waves pattern sized at two
// blocks per node, and (when prefetching) two prefetch buffers per
// node. Two is the knee: with one, a node's wait can fund at most one
// outstanding prefetch, which pins the whole machine at just-in-time
// unready hits (every "hit" still waits a full disk response); a third
// buys little (the paper's 2-5 plateau, §V-F) and the frame is the
// dominant per-node allocation.
//
// The memory model is memory.Uncontended. The default model prices
// every file system action by the number of other processors
// concurrently in FS code — faithful to the paper's single
// shared-memory file system, but a single contention domain spanning
// 100k+ nodes prices actions into the seconds and the run measures
// nothing else. A machine built at this scale shards that state (as
// this simulator's own cache index does), so cluster runs charge the
// calibrated base costs without the contention term and leave disk
// queueing as the contention under study.
func ScaleConfig(nodes, disks int, prefetch bool) Config {
	cfg := DefaultConfig(pattern.GW)
	cfg.Procs = nodes
	cfg.Disks = disks
	cfg.Pattern.Procs = nodes
	cfg.Pattern.TotalBlocks = 2 * nodes
	cfg.CompactNodes = true
	cfg.Prefetch = prefetch
	cfg.PrefetchBuffersPerProc = 2
	cfg.Memory = memory.Uncontended()
	// Backpressure-gate the idle-time prefetcher: at the contention
	// knee a disk wait is hundreds of action-times long, and without
	// the gate every node spends that wait looping failed frame hunts
	// — a ~100× kernel-event explosion that buys nothing (no frame
	// will appear until a fetch lands).
	cfg.NodeFault.Backpressure = true
	return cfg
}

// runCompact executes the experiment on the compact engine.
func (e *Engine) runCompact() *Result {
	e.armNodeFaults()
	e.armDomainFaults()
	e.cnodes = make([]cnode, e.cfg.Procs)
	for i := range e.cnodes {
		n := &e.cnodes[i]
		n.e = e
		n.id = i
		n.rng = *rng.New(e.cfg.Seed, uint64(i)+1000)
		n.ru.size = e.cfg.RUSetSize
		n.action.n = n
		n.pc = cpcMain
		// Start every node at t=0 through the event queue, in node
		// order — the compact analogue of the goroutine engine's spawn
		// order.
		e.k.ScheduleWake(0, n)
	}
	if e.cfg.AuditEvery > 0 {
		e.aud = e.buildAuditor()
		e.aud.Start()
	}
	e.k.Run()
	if e.aud != nil {
		e.aud.Sweep()
	}
	for i := range e.cnodes {
		if pc := e.cnodes[i].pc; pc != cpcDone && pc != cpcDead {
			panic(fmt.Sprintf("core: compact node %d stalled at pc %d with an empty event queue (deadlock)", i, pc))
		}
	}
	return e.collectResult()
}

// prefetchingC reports whether this run prefetches (compact mode has no
// per-node Scheduler to test).
func (e *Engine) prefetchingC() bool { return e.policy != nil || e.pred != nil }

// cWake is the node's generic wake: close out whatever the node was
// parked on — file system work, an event wait, a timer — then continue
// the state machine.
func (e *Engine) cWake(n *cnode) {
	switch {
	case n.inFSWork:
		e.track.Exit()
		n.inFSWork = false
		if e.obs != nil {
			e.obs.Span(obs.Span{
				Track: obs.ProcTrack(n.id), Kind: obs.SpanFSWork,
				Start: int64(n.fsStart), End: int64(e.k.Now()),
				Block: -1, Arg: int64(n.fsOthers),
			})
		}
	case n.waitEv != nil:
		ev := n.waitEv
		n.waitEv = nil
		n.lastWait = ev.FiredAt().Sub(n.waitStart)
		if n.ranAction {
			// Woken by the event itself, so the last action finished
			// before the firing: zero overrun, mirroring the goroutine
			// engine's accounting for every wait that hosted an action.
			e.res.Overrun.Add(0)
		}
		e.recordWait(n)
	}
	e.cstep(n)
}

// cActionWake completes the prefetch action in flight and decides, in
// kernel context, what the parked node does next — resume (event
// fired, possibly overrun), begin another action, or hand the wakeup to
// the event. It is prefetch.Scheduler.Wake for a node with no process.
func (e *Engine) cActionWake(n *cnode) {
	e.finishAction(n.id)
	ev := n.waitEv
	if ev.Fired() {
		n.waitEv = nil
		n.lastWait = ev.FiredAt().Sub(n.waitStart)
		over := e.k.Now().Sub(ev.FiredAt())
		if over < 0 {
			over = 0
		}
		e.res.Overrun.Add(over.Millis())
		e.recordWait(n)
		e.cstep(n)
		return
	}
	if d, ok := e.cBeginAction(n.id, n.waitDeadline); ok {
		e.k.AfterWake(d, &n.action)
		return
	}
	ev.AddWaiter(n)
}

// cBeginAction is beginAction behind the compact engine's backpressure
// gate — the counterpart of prefetch.Scheduler.SetGate wiring in the
// goroutine engine. With NodeFault.Backpressure set, an idle wait hosts
// no action while the prefetch class has no claimable frame, instead of
// looping a cheap failed hunt for the entire wait.
func (e *Engine) cBeginAction(node int, deadline sim.Time) (sim.Duration, bool) {
	if e.bpGate && !e.prefetchAllowed() {
		return 0, false
	}
	return e.beginAction(node, deadline)
}

// recordWait books the idle time of the wait just ended and emits its
// span, mirroring waitEvent's epilogue.
func (e *Engine) recordWait(n *cnode) {
	e.res.IdleTime[n.waitKind].Add(n.lastWait.Millis())
	if e.obs != nil {
		var sk obs.SpanKind
		switch n.waitKind {
		case IdleSync:
			sk = obs.SpanSyncWait
		case IdleOwnIO:
			sk = obs.SpanDemandWait
		default:
			sk = obs.SpanHitWait
		}
		e.obs.Span(obs.Span{
			Track: obs.ProcTrack(n.id), Kind: sk,
			Start: int64(n.waitStart), End: int64(e.k.Now()),
			Block: n.waitBlock, Arg: int64(n.lastWait),
		})
	}
}

// cWait parks the node on ev until it fires, filling the wait with
// prefetch actions exactly as prefetch.Scheduler.Wait does; next is
// where the node resumes. The event must not have fired yet.
func (e *Engine) cWait(n *cnode, ev *sim.Event, deadline sim.Time, block int, kind IdleKind, next cpc) {
	n.waitEv = ev
	n.waitStart = e.k.Now()
	n.waitDeadline = deadline
	n.waitBlock = block
	n.waitKind = kind
	n.ranAction = false
	n.pc = next
	if e.prefetchingC() {
		if e.obs != nil {
			e.obs.Add(obs.CtrPrefetchWaits, 1)
		}
		if d, ok := e.cBeginAction(n.id, deadline); ok {
			n.ranAction = true
			e.k.AfterWake(d, &n.action)
			return
		}
	}
	ev.AddWaiter(n)
}

// cFSWork charges one file system operation under the NUMA cost model:
// enter the contention tracker, price the work, and park the node on
// the completion timer; the wake releases the tracker slot and resumes
// at next. The bracket matches fsWork — the node occupies its
// contention slot for the operation's whole duration.
func (e *Engine) cFSWork(n *cnode, c memory.Cost, next cpc) {
	others := e.track.Enter()
	d := e.price(n.id, c, others)
	n.inFSWork = true
	n.fsStart = e.k.Now()
	n.fsOthers = others
	n.pc = next
	e.k.AfterWake(d, n)
}

// cSyncArrive takes the node through one barrier generation,
// prefetching while it waits; next is where the node continues after
// the release. It reports whether the node parked (false: the node was
// the releasing arrival, or the release had already fired, and cstep
// continues inline).
func (e *Engine) cSyncArrive(n *cnode, next cpc) bool {
	arrival := e.k.Now()
	ev, last := e.bar.Arrive(n.id)
	n.afterSync = next
	if last || ev.Fired() {
		wait := ev.FiredAt().Sub(arrival)
		e.res.SyncTime.Add(wait.Millis())
		e.res.PerProc[n.id].SyncWait.Add(wait.Millis())
		n.pc = next
		return false
	}
	e.cWait(n, ev, sim.MaxTime, -1, IdleSync, cpcSyncWaited)
	return true
}

// cFailedRead is failedRead for a compact node: release the buffer
// whose fill failed, book the retry, and park the node on the
// capped-exponential backoff timer; the wake re-enters at cpcBackoff
// and retries the lookup (a dead home disk remaps through place on the
// way). Exhausting a bounded retry policy panics exactly as in the
// goroutine engine.
func (e *Engine) cFailedRead(n *cnode) {
	err := n.buf.FillErr()
	e.bcache.Unpin(n.buf)
	n.buf = nil
	n.attempts++
	if e.retry.Exhausted(int(n.attempts)) {
		panic(fmt.Sprintf("core: node %d: read of block %d failed after %d attempts: %v",
			n.id, n.block, n.attempts, err))
	}
	e.res.Faults.ReadRetries++
	if e.obs != nil {
		e.obs.Add(obs.CtrReadRetries, 1)
	}
	n.waitStart = e.k.Now()
	n.waitBlock = n.block
	n.pc = cpcBackoff
	e.k.AfterWake(e.retry.Backoff(int(n.attempts), e.nodes[n.id].retryRNG), n)
}

// cAbandon is abandon for a compact node: crash semantics. The node
// unpins what it holds, records its stats, and parks terminally at
// cpcDead without withdrawing from the barrier — its membership is
// recovered by the quorum watchdog (when armed), so a kill under
// synchronization without a barrier timeout deadlocks the survivors by
// design. Compact patterns are global, so the victim's unclaimed reads
// stay in the shared cursor and the surviving self-scheduled readers
// drain them with no orphan posting.
func (e *Engine) cAbandon(n *cnode) {
	n.ru.drain(e.bcache)
	e.killErr = fmt.Errorf("core: node %d abandoned 0 unread block(s): %w",
		n.id, fault.ErrProcDead)
	e.res.Faults.Node.DeadProcs++
	if e.res.Faults.Node.KilledAtMillis == 0 {
		e.res.Faults.Node.KilledAtMillis = sim.Duration(e.k.Now()).Millis()
	}
	e.res.PerProc[n.id].Reads = n.myReads
	e.res.PerProc[n.id].Finish = e.k.Now()
	if e.k.Now() > e.maxFinish {
		e.maxFinish = e.k.Now()
	}
	if e.orphansPosted != nil && !e.orphansPosted.Fired() {
		e.orphansPosted.Fire()
	}
	n.pc = cpcDead
}

// cstep runs the node's state machine until it parks again. Each case
// either transitions inline (continue) or arranges a wake and returns.
func (e *Engine) cstep(n *cnode) {
	for {
		switch n.pc {
		case cpcMain:
			if e.killArmed && e.nodes[n.id].dead {
				e.cAbandon(n)
				return
			}
			if e.usesGenerations() && n.passedGens < e.gens.Raised() {
				n.passedGens++
				if e.cSyncArrive(n, cpcMain) {
					return
				}
				continue
			}
			idx, block, ok := e.nextRead(n.id)
			if !ok {
				n.ru.drain(e.bcache)
				n.pc = cpcEndGens
				continue
			}
			n.idx, n.block = idx, block
			n.readStart = e.k.Now()
			n.attempts = 0
			n.ru.makeRoom(e.bcache)
			if e.policy != nil {
				e.policy.NoteDemand(n.id, idx)
			}
			if e.pred != nil {
				e.pred.ObserveDemand(n.id, block)
			}
			n.pc = cpcLookup

		case cpcLookup:
			if buf := e.bcache.Lookup(n.block); buf != nil {
				n.buf = buf
				n.hitReady = e.bcache.Pin(n.id, buf)
				e.cFSWork(n, e.cfg.Memory.Hit, cpcHitRemote)
				return
			}
			e.cFSWork(n, e.cfg.Memory.Miss, cpcMissAlloc)
			return

		case cpcHitRemote:
			if n.buf.Home() != n.id {
				// NUMA: the buffer lives on the fetching node's memory.
				e.cFSWork(n, e.cfg.Memory.RemoteBuffer, cpcHitBranch)
				return
			}
			n.pc = cpcHitBranch

		case cpcHitBranch:
			if n.hitReady {
				e.res.HitWaitAll.Add(0)
				n.pc = cpcReadDone
				continue
			}
			if n.buf.IODone.Fired() {
				n.lastWait = 0
				n.pc = cpcHitWaited
				continue
			}
			e.cWait(n, n.buf.IODone, n.buf.FetchDone(), n.block, IdleRemoteIO, cpcHitWaited)
			return

		case cpcHitWaited:
			// Wait stats first, FillErr second — the goroutine engine
			// books the hit wait before discovering the piled-on fill
			// failed.
			e.res.HitWaitAll.Add(n.lastWait.Millis())
			e.res.HitWaitUnready.Add(n.lastWait.Millis())
			if n.buf.FillErr() != nil {
				e.cFailedRead(n)
				return
			}
			n.pc = cpcReadDone

		case cpcMissAlloc:
			// The block may have appeared while the miss cost elapsed
			// (another node fetched it) — then it is a hit.
			if e.bcache.Lookup(n.block) != nil {
				n.pc = cpcLookup
				continue
			}
			nbuf := e.bcache.AllocateDemand(n.id, n.block)
			if nbuf == nil {
				n.frameWaitStart = e.k.Now()
				n.pc = cpcFrameWaited
				e.bcache.Freed.AddWaiter(n)
				return
			}
			n.buf = nbuf
			dsk, phys := e.place(n.block)
			req := e.disks.Submit(dsk, n.block, phys, false)
			e.bcache.BeginFetchFrom(nbuf, &req.Complete, req.EstDone, req)
			if nbuf.IODone.Fired() {
				n.lastWait = 0
				n.pc = cpcDemandWaited
				continue
			}
			e.cWait(n, nbuf.IODone, req.EstDone, n.block, IdleOwnIO, cpcDemandWaited)
			return

		case cpcFrameWaited:
			if e.obs != nil {
				e.obs.Span(obs.Span{
					Track: obs.ProcTrack(n.id), Kind: obs.SpanFrameWait,
					Start: int64(n.frameWaitStart), End: int64(e.k.Now()), Block: n.block,
				})
			}
			n.pc = cpcLookup

		case cpcDemandWaited:
			if n.buf.FillErr() != nil {
				e.cFailedRead(n)
				return
			}
			n.pc = cpcReadDone

		case cpcBackoff:
			if e.obs != nil {
				e.obs.Span(obs.Span{
					Track: obs.ProcTrack(n.id), Kind: obs.SpanBackoff,
					Start: int64(n.waitStart), End: int64(e.k.Now()),
					Block: n.waitBlock, Arg: int64(n.attempts),
				})
			}
			n.pc = cpcLookup

		case cpcReadDone:
			n.ru.add(n.buf)
			rt := e.k.Now().Sub(n.readStart)
			e.res.ReadTime.Add(rt.Millis())
			e.res.ReadTimeHist.Add(rt.Millis())
			e.res.PerProc[n.id].ReadTime.Add(rt.Millis())
			if e.obs != nil {
				e.obs.Span(obs.Span{
					Track: obs.ProcTrack(n.id), Kind: obs.SpanRead,
					Start: int64(n.readStart), End: int64(e.k.Now()), Block: n.block,
				})
			}
			n.buf = nil
			n.myReads++
			e.gens.ReadDone()
			if e.cfg.Sync == barrier.PerPortion && e.portionEnded(n.id, n.idx) {
				// Compact patterns are global, so a portion end raises
				// the shared generation.
				e.gens.Raise()
			}
			if e.cfg.ComputeMean > 0 {
				n.computeStart = e.k.Now()
				n.pc = cpcAfterCompute
				e.k.AfterWake(sim.Millis(n.rng.Exp(e.cfg.ComputeMean.Millis())), n)
				return
			}
			n.pc = cpcMaybeSync

		case cpcAfterCompute:
			if e.obs != nil {
				e.obs.Span(obs.Span{
					Track: obs.ProcTrack(n.id), Kind: obs.SpanCompute,
					Start: int64(n.computeStart), End: int64(e.k.Now()), Block: -1,
				})
			}
			n.pc = cpcMaybeSync

		case cpcMaybeSync:
			n.pc = cpcMain
			if e.cfg.Sync == barrier.EveryNPerProc && n.myReads%e.cfg.SyncEveryPerProc == 0 {
				if e.cSyncArrive(n, cpcMain) {
					return
				}
			}

		case cpcSyncWaited:
			e.res.SyncTime.Add(n.lastWait.Millis())
			e.res.PerProc[n.id].SyncWait.Add(n.lastWait.Millis())
			n.pc = n.afterSync

		case cpcEndGens:
			if e.usesGenerations() && n.passedGens < e.gens.Raised() {
				n.passedGens++
				if e.cSyncArrive(n, cpcEndGens) {
					return
				}
				continue
			}
			if e.bar != nil {
				e.bar.Withdraw(n.id)
			}
			e.res.PerProc[n.id].Reads = n.myReads
			e.res.PerProc[n.id].Finish = e.k.Now()
			if e.k.Now() > e.maxFinish {
				e.maxFinish = e.k.Now()
			}
			e.nodes[n.id].finished = true
			n.pc = cpcDone
			return

		default:
			panic(fmt.Sprintf("core: compact node %d woke at pc %d", n.id, n.pc))
		}
	}
}
