package core

import (
	"fmt"

	"repro/internal/barrier"
	"repro/internal/cache"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Each processor runs as an event-driven state machine, a cnode, in
// kernel context: no goroutine, no coroutine, no stack. A cnode is a
// flat record of 192 bytes in one contiguous array, which is what lets
// a 100k–1M node run fit under 1 KB per node.
//
// Every point where the synthetic application blocks (an I/O
// completion, a barrier release, a frame wait, the orphan posting of a
// processor kill) or advances the clock (file system work, the
// computation delay, a retry backoff) is a program counter the node
// parks at, and the wake re-enters cstep. Idle-time prefetching is a
// chain of actions: each action's completion timer wakes the node,
// which begins the next one directly, and the node continues once the
// awaited event has fired and the action in flight has completed
// (§III). The node is the only Waiter it needs: while an action runs it
// is not registered on the awaited event, so every wake is either the
// timer it armed last or the event it parked on after its last action.
//
// A parked node wakes in one of two same-instant orders, both
// deterministic. By default it joins the event's FIFO of blocked
// parties and wakes behind the events already due at the firing, as a
// blocked process would; this order reproduces the paper-scale goldens.
// Under Config.CompactNodes it wakes inline, inside the firing; this
// order reproduces the cluster goldens. The two give different Result
// bytes, since same-instant work interleaves differently.
//
// Faults keep determinism: a failed fill parks the node in an explicit
// backoff state (cpcBackoff) whose jitter comes from the node's own
// retry stream, a dead home disk remaps through place, and a node kill
// crashes the node into the terminal cpcDead state at its next read
// boundary — crash semantics, no barrier withdrawal, so a kill under
// synchronization without a barrier timeout deadlocks the survivors by
// design (a *sim.DeadlockError, which trips the flight recorder).

// cpc is a cnode's program counter.
type cpc uint8

const (
	// cpcMain is the application loop head: crash out if killed.
	cpcMain cpc = iota
	// cpcClaim catches up on raised generations, then claims the next
	// read or finishes. It is a state of its own because the loop head
	// checks for a kill once, not after each catch-up barrier.
	cpcClaim
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
	// cpcMaybeSync applies the per-proc every-N and local per-portion
	// synchronization styles.
	cpcMaybeSync
	// cpcSyncWaited resumes after a barrier release.
	cpcSyncWaited
	// cpcEndGens catches up on remaining generations, withdraws from
	// the barrier, and waits for a killed node's orphaned blocks.
	cpcEndGens
	// cpcTakeover claims the next orphaned block, or finishes.
	cpcTakeover
	// cpcBackoff resumes after a failed read's virtual-time
	// capped-exponential backoff and retries the lookup.
	cpcBackoff
	// cpcDone marks a cleanly finished node.
	cpcDone
	// cpcDead marks a node killed by fault injection — terminal, like
	// cpcDone, but the node crashed out with reads unclaimed.
	cpcDead
)

// cnode is one processor: everything a blocking process would keep on
// its stack, and everything the engine tracks per processor, lives
// here explicitly; the whole population is one contiguous []cnode
// allocation, built by Run. Word-sized fields come first, then the
// 32-bit ones, and the byte-sized flags share the trailing slots: at
// 100k–1M nodes every padding hole in this struct is a megabyte. The
// 32-bit fields hold block ids, string positions and counts of reads,
// generations and processors, which int32 bounds: pattern.Generate
// refuses a file past math.MaxInt32 blocks, and cache.New a frame
// population past int32 ids.
type cnode struct {
	e  *Engine
	id int

	rng      rng.Source  // computation-delay stream, by value
	retryRNG *rng.Source // backoff jitter; nil unless a disk can die
	ru       ruSet       // pinned recently-used buffers

	// The current read's start and frame (its block is below).
	readStart sim.Time
	buf       *cache.Buffer

	// The one outstanding idle wait (waitEv is nil when the node is
	// parked on a timer, a frame wait or the orphan posting instead);
	// its kind is in the byte tail.
	waitEv       *sim.Event
	waitStart    sim.Time
	waitDeadline sim.Time
	lastWait     sim.Duration

	// File system work in flight (a timer wake must release the
	// contention slot before the node continues).
	fsStart sim.Time

	frameWaitStart sim.Time
	computeStart   sim.Time

	// The prefetch action in flight: its start, and its block and
	// whether it allocated a frame (obs only).
	actionStart sim.Time

	// The current read; idx is -1 for a takeover read.
	idx, block  int32
	localCursor int32 // next index into the node's own string (local patterns)
	myReads     int32
	passedGens  int32
	fsOthers    int32 // other processors in file system code as the work began
	actionBlock int32
	// attempts counts failed fills of the current read (retry/backoff
	// bookkeeping, reset when a new read is claimed), and failClass is
	// the obs fault class of the last one.
	attempts int32
	// ordinal numbers the current read among all reads of the run, in
	// the order they started; its SpanRead carries it.
	ordinal int32

	pc           cpc
	afterSync    cpc
	waitKind     IdleKind
	failClass    uint8
	hitReady     bool
	ranAction    bool
	inFSWork     bool
	inAction     bool
	actionIssued bool
	portionEnd   bool // the read just done ended a per-portion sync portion
	finished     bool // read its share and withdrew (invariant auditor)
	dead         bool // kill fired for this node
}

// Wake re-enters the node's state machine (sim.Waiter): event fired,
// timer elapsed (file system work, a prefetch action, a delay), or
// frame freed.
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
// nothing else. A machine built at this scale shards that state, so
// cluster runs charge the calibrated base costs without the contention
// term and leave disk queueing as the contention under study.
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

// deadlock describes the nodes still parked once the event queue has
// drained, or returns nil if every node finished or died.
func (e *Engine) deadlock() *sim.DeadlockError {
	var err *sim.DeadlockError
	for i := range e.cnodes {
		n := &e.cnodes[i]
		if n.pc == cpcDone || n.pc == cpcDead {
			continue
		}
		if err == nil {
			err = &sim.DeadlockError{}
		}
		err.Active++
		if len(err.Blocked) < 8 { // the kernel's diagnostic names at most 8
			err.Blocked = append(err.Blocked, sim.BlockedProc{
				Name: fmt.Sprintf("proc%d", n.id), Waiting: e.waitingOn(n),
			})
		}
	}
	return err
}

// waitingOn labels what a parked node waits on.
func (e *Engine) waitingOn(n *cnode) string {
	switch {
	case n.waitEv != nil:
		return n.waitEv.Label()
	case n.pc == cpcFrameWaited:
		return e.bcache.Freed.Label()
	case n.pc == cpcTakeover:
		return e.orphansPosted.Label()
	}
	return ""
}

// prefetching reports whether this run prefetches.
func (e *Engine) prefetching() bool { return e.src != nil }

// park registers n to wake when ev fires: behind the events already
// due at the firing, as a blocked process wakes, or inline at the
// firing under CompactNodes.
func (e *Engine) park(n *cnode, ev *sim.Event) {
	if e.cfg.CompactNodes {
		ev.AddWaiter(n)
		return
	}
	ev.AddBlocked(n)
}

// cWake is the node's generic wake: close out whatever the node was
// parked on — file system work, a prefetch action, an event wait, a
// timer — then continue the state machine.
func (e *Engine) cWake(n *cnode) {
	switch {
	case n.inAction:
		n.inAction = false
		e.cActionWake(n)
		return
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
			// before the firing: zero overrun.
			e.res.Overrun.Add(0)
		}
		e.recordWait(n)
	}
	e.cstep(n)
}

// cActionWake completes the prefetch action in flight and decides, in
// kernel context, what the parked node does next — resume (event
// fired, possibly overrun), begin another action, or hand the wakeup to
// the event.
func (e *Engine) cActionWake(n *cnode) {
	e.finishAction(n)
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
	if !e.cAction(n) {
		e.park(n, ev)
	}
}

// cAction begins a prefetch action in the node's idle wait and arms
// its completion timer, which wakes the node itself; it reports whether
// an action began.
func (e *Engine) cAction(n *cnode) bool {
	d, ok := e.beginAction(n, n.waitDeadline)
	if ok {
		n.inAction = true
		e.k.AfterWake(d, n)
	}
	return ok
}

// recordWait books the idle time of the wait just ended and emits its
// span. The span runs from the call to the actual resume — so a
// prefetch action that overruns the event stays nested inside it — and
// carries the awaited block (-1 for a barrier) and the logical wait
// (call to firing) in Arg.
func (e *Engine) recordWait(n *cnode) {
	e.res.IdleTime[n.waitKind].Add(n.lastWait.Millis())
	if e.obs != nil {
		sk, block := obs.SpanHitWait, int(n.block)
		switch n.waitKind {
		case IdleSync:
			sk, block = obs.SpanSyncWait, -1
		case IdleOwnIO:
			sk = obs.SpanDemandWait
		}
		e.obs.Span(obs.Span{
			Track: obs.ProcTrack(n.id), Kind: sk,
			Start: int64(n.waitStart), End: int64(e.k.Now()),
			Block: block, Arg: int64(n.lastWait),
		})
	}
}

// cWait parks the node on ev until it fires, filling the wait with
// prefetch actions (§III); next is where the node resumes. deadline is
// the file system's estimate of when the idle period ends (exact for
// disk waits, MaxTime for sync waits); it gates the MinPrefetchTime
// heuristic. The event must not have fired yet.
func (e *Engine) cWait(n *cnode, ev *sim.Event, deadline sim.Time, kind IdleKind, next cpc) {
	n.waitEv = ev
	n.waitStart = e.k.Now()
	n.waitDeadline = deadline
	n.waitKind = kind
	n.ranAction = false
	n.pc = next
	if e.prefetching() {
		if e.obs != nil {
			e.obs.Add(obs.CtrPrefetchWaits, 1)
		}
		if e.cAction(n) {
			n.ranAction = true
			return
		}
	}
	e.park(n, ev)
}

// cFSWork charges one file system operation under the NUMA cost model:
// enter the contention tracker, price the work, and park the node on
// the completion timer; the wake releases the tracker slot and resumes
// at next. Contention is the number of *other* processors executing
// file system code (not those blocked on I/O), and the node holds its
// slot for the operation's whole duration.
func (e *Engine) cFSWork(n *cnode, c memory.Cost, next cpc) {
	others := e.track.Enter()
	d := e.price(n.id, c, others)
	n.inFSWork = true
	n.fsStart = e.k.Now()
	n.fsOthers = int32(others)
	n.pc = next
	e.k.AfterWake(d, n)
}

// cDelay parks the node for d of virtual time and continues at next.
// It reports whether the node parked: a zero delay (a computation draw
// that rounds to 0 µs) continues inline rather than queueing behind the
// events already due now.
func (e *Engine) cDelay(n *cnode, d sim.Duration, next cpc) bool {
	n.pc = next
	if d == 0 {
		return false
	}
	e.k.AfterWake(d, n)
	return true
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
		e.syncReleased(n, ev.FiredAt().Sub(arrival))
		n.pc = next
		return false
	}
	e.cWait(n, ev, sim.MaxTime, IdleSync, cpcSyncWaited)
	return true
}

// syncReleased books a barrier wait of the given length.
func (e *Engine) syncReleased(n *cnode, wait sim.Duration) {
	e.res.SyncTime.Add(wait.Millis())
	e.res.PerProc[n.id].SyncWait.Add(wait.Millis())
}

// cFailedRead releases the buffer whose fill failed, books the retry,
// and parks the node on the capped-exponential backoff timer; the wake
// re-enters at cpcBackoff and retries the lookup (a dead home disk
// remaps through place on the way). Exhausting a bounded retry policy
// panics: the synthetic application replays a fixed reference string
// and has no error path, so a permanent read failure is a configuration
// choice (the default policy is unlimited and, with degraded-mode
// remapping, always makes progress). It reports whether the node
// parked, as cDelay does.
func (e *Engine) cFailedRead(n *cnode) bool {
	err := n.buf.FillErr()
	e.bcache.Unpin(n.buf)
	n.buf = nil
	n.attempts++
	if e.retry.Exhausted(int(n.attempts)) {
		panic(fmt.Sprintf("core: node %d: read of block %d failed after %d attempts: %v",
			n.id, n.block, n.attempts, err))
	}
	e.res.Faults.ReadRetries++
	n.failClass = faultClass(err)
	n.waitStart = e.k.Now()
	return e.cDelay(n, e.retry.Backoff(int(n.attempts), n.retryRNG), cpcBackoff)
}

// cAbandon is a killed node's exit: crash semantics. The node unpins
// what it holds, posts its unread blocks for survivors to claim (local
// patterns only — a global pattern's unclaimed entries stay in the
// shared cursor for the surviving self-scheduled readers), records its
// stats, and parks terminally at cpcDead without withdrawing from the
// barrier. Its membership is recovered by the quorum watchdog (when
// armed), so a kill under synchronization without a barrier timeout
// deadlocks the survivors by design.
func (e *Engine) cAbandon(n *cnode) {
	n.ru.drain(e.bcache)
	var orphaned int
	if e.pat.Kind.Local() {
		portions := e.pat.Portions(n.id)
		end := pattern.Len(portions)
		orphaned = end - int(n.localCursor)
		for i := int(n.localCursor); i < end; i++ {
			e.orphans = append(e.orphans, pattern.BlockAt(portions, i))
		}
		n.localCursor = int32(end)
	}
	e.lastKilled, e.lastOrphaned = n.id, orphaned
	e.res.Faults.Node.DeadProcs++
	if e.res.Faults.Node.KilledAtMillis == 0 {
		e.res.Faults.Node.KilledAtMillis = sim.Duration(e.k.Now()).Millis()
		if e.bar != nil {
			// Detection is the first quorum release after the kill.
			e.bar.ResetFirstQuorum()
		}
	}
	e.cFinish(n, cpcDead)
	// Domain kills (global patterns only, no takeover FIFO) never
	// create the orphan event; a single-victim NodeFault kill always
	// does. Domain kills also take several victims, so guard the Fire.
	if e.orphansPosted != nil && !e.orphansPosted.Fired() {
		e.orphansPosted.Fire()
	}
}

// cFinish records the node's stats at its end and parks it at pc.
func (e *Engine) cFinish(n *cnode, pc cpc) {
	n.pc = pc
	e.res.PerProc[n.id].Reads = int(n.myReads)
	e.res.PerProc[n.id].Finish = e.k.Now()
	if e.k.Now() > e.maxFinish {
		e.maxFinish = e.k.Now()
	}
}

// beginRead claims block as the node's current read; idx is its
// reference-string position, or -1 for a takeover read.
func (e *Engine) beginRead(n *cnode, idx, block int) {
	n.idx, n.block = int32(idx), int32(block)
	n.readStart = e.k.Now()
	n.attempts = 0
	n.ordinal = e.readsStarted
	e.readsStarted++
	// Toss-immediately: make room in the RU set before acquiring, so a
	// processor never pins more than RUSetSize buffers.
	n.ru.makeRoom(e.bcache)
	if e.src != nil {
		e.src.Demand(n.id, idx, block)
	}
	n.pc = cpcLookup
}

// cstep runs the node's state machine until it parks again. Each case
// either transitions inline (continue) or arranges a wake and returns.
// The synthetic application (§IV-B): claim the next block of the access
// pattern, read it through the file system, simulate computation, and
// synchronize per the configured style.
func (e *Engine) cstep(n *cnode) {
	for {
		switch n.pc {
		case cpcMain:
			if n.dead {
				e.cAbandon(n)
				return
			}
			n.pc = cpcClaim

		case cpcClaim:
			if e.usesGenerations() && int(n.passedGens) < e.gens.Raised() {
				n.passedGens++
				if e.cSyncArrive(n, cpcClaim) {
					return
				}
				continue
			}
			idx, block, ok := e.nextRead(n)
			if !ok {
				n.ru.drain(e.bcache)
				n.pc = cpcEndGens
				continue
			}
			e.beginRead(n, idx, block)

		case cpcLookup:
			if buf := e.bcache.Lookup(int(n.block)); buf != nil {
				n.buf = buf
				n.hitReady = e.bcache.Pin(n.id, buf)
				e.cFSWork(n, e.cfg.Memory.Hit, cpcHitRemote)
				return
			}
			// Miss: pay the demand-fetch setup cost, then claim a frame
			// and start the transfer.
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
			e.cWait(n, n.buf.IODone, n.buf.FetchDone(), IdleRemoteIO, cpcHitWaited)
			return

		case cpcHitWaited:
			// Wait stats first, FillErr second: the hit wait is booked
			// before discovering that the piled-on fill failed.
			e.res.HitWaitAll.Add(n.lastWait.Millis())
			e.res.HitWaitUnready.Add(n.lastWait.Millis())
			if n.buf.FillErr() != nil {
				if e.cFailedRead(n) {
					return
				}
				continue
			}
			n.pc = cpcReadDone

		case cpcMissAlloc:
			// The block may have appeared while the miss cost elapsed
			// (another node fetched it) — then it is a hit.
			if e.bcache.Lookup(int(n.block)) != nil {
				n.pc = cpcLookup
				continue
			}
			nbuf := e.bcache.AllocateDemand(n.id, int(n.block))
			if nbuf == nil {
				n.frameWaitStart = e.k.Now()
				n.pc = cpcFrameWaited
				e.bcache.Freed.AddWaiter(n)
				return
			}
			n.buf = nbuf
			dsk, phys := e.place(int(n.block))
			req := e.disks.Submit(dsk, int(n.block), phys, false)
			e.bcache.BeginFetchFrom(nbuf, &req.Complete, req.EstDone, req)
			if nbuf.IODone.Fired() {
				n.lastWait = 0
				n.pc = cpcDemandWaited
				continue
			}
			e.cWait(n, nbuf.IODone, nbuf.FetchDone(), IdleOwnIO, cpcDemandWaited)
			return

		case cpcFrameWaited:
			if e.obs != nil {
				e.obs.Span(obs.Span{
					Track: obs.ProcTrack(n.id), Kind: obs.SpanFrameWait,
					Start: int64(n.frameWaitStart), End: int64(e.k.Now()), Block: int(n.block),
				})
			}
			n.pc = cpcLookup

		case cpcDemandWaited:
			if n.buf.FillErr() != nil {
				if e.cFailedRead(n) {
					return
				}
				continue
			}
			n.pc = cpcReadDone

		case cpcBackoff:
			if e.obs != nil {
				e.obs.Add(obs.CtrReadRetries, 1)
				e.obs.Span(obs.Span{
					Track: obs.ProcTrack(n.id), Kind: obs.SpanBackoff,
					Start: int64(n.waitStart), End: int64(e.k.Now()),
					Block: int(n.block), Arg: int64(n.attempts)<<2 | int64(n.failClass),
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
					Start: int64(n.readStart), End: int64(e.k.Now()),
					Block: int(n.block), Arg: int64(n.ordinal),
				})
			}
			n.buf = nil
			n.myReads++
			if n.idx < 0 {
				// A takeover read: no generation, computation or sync.
				e.res.Faults.Node.TakeoverReads++
				if e.obs != nil {
					e.obs.Add(obs.CtrTakeoverReads, 1)
				}
				n.pc = cpcTakeover
				continue
			}
			e.gens.ReadDone()
			n.portionEnd = e.cfg.Sync == barrier.PerPortion && e.portionEnded(n.id, int(n.idx))
			if n.portionEnd && e.pat.Kind.Global() {
				// A global portion end raises the shared generation.
				e.gens.Raise()
			}
			if e.cfg.ComputeMean > 0 {
				n.computeStart = e.k.Now()
				if e.cDelay(n, sim.Millis(n.rng.Exp(e.cfg.ComputeMean.Millis())), cpcAfterCompute) {
					return
				}
				continue
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
			if e.cfg.Sync == barrier.EveryNPerProc && int(n.myReads)%e.cfg.SyncEveryPerProc == 0 ||
				n.portionEnd && e.pat.Kind.Local() {
				if e.cSyncArrive(n, cpcMain) {
					return
				}
			}

		case cpcSyncWaited:
			e.syncReleased(n, n.lastWait)
			n.pc = n.afterSync

		case cpcEndGens:
			if e.usesGenerations() && int(n.passedGens) < e.gens.Raised() {
				n.passedGens++
				if e.cSyncArrive(n, cpcEndGens) {
					return
				}
				continue
			}
			if e.bar != nil {
				e.bar.Withdraw(n.id)
			}
			n.finished = true
			if e.orphansPosted == nil {
				e.cFinish(n, cpcDone)
				return
			}
			// A processor kill is armed: survivors wait for the victim's
			// unread blocks and claim them one at a time from a shared
			// FIFO, so the load spreads over whichever survivors are
			// free. A victim that finished its whole workload before the
			// kill landed posts an empty set.
			if kn, _, _ := e.ninj.Kills(); n.id == kn {
				if !e.orphansPosted.Fired() {
					e.orphansPosted.Fire()
				}
				e.cFinish(n, cpcDone)
				return
			}
			n.pc = cpcTakeover
			if !e.orphansPosted.Fired() {
				e.park(n, e.orphansPosted)
				return
			}

		case cpcTakeover:
			if len(e.orphans) > 0 {
				block := e.orphans[0]
				e.orphans = e.orphans[1:]
				e.beginRead(n, -1, block)
				continue
			}
			n.ru.drain(e.bcache)
			e.cFinish(n, cpcDone)
			return

		default:
			panic(fmt.Sprintf("core: node %d woke at pc %d", n.id, n.pc))
		}
	}
}
