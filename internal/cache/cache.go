// Package cache implements the shared block buffer cache of the RAPID
// Transit testbed.
//
// The cache holds a fixed population of buffers. A buffer is either
// invalid (on the free list), fetching (a disk transfer is in flight),
// or ready. Processes pin the buffers they are using; each simulated
// processor keeps a small "recently used" (RU) set of pinned buffers —
// size one in the paper, emulating a toss-immediately policy — and
// buffers evicted from an RU set join a global least-recently-used list
// of reusable buffers that still satisfy lookups until their frames are
// recycled. This combination gives the paper's "strong locality for the
// more complex list manipulations while enforcing a global policy".
//
// Prefetched-but-not-yet-used buffers are tracked separately: the paper
// caps them at three per processor node (60 total for 20 nodes), and
// they are exempt from reuse until a process first reads them
// ("consumes" them). Both the global-pool interpretation (any node may
// grab any free prefetch slot; the paper's observed behaviour) and a
// strict per-node allocation are implemented.
package cache

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/sim"
)

// State is the lifecycle state of a buffer. One byte wide: it is
// stored per frame, and at cluster scale frame metadata is live memory.
type State uint8

// Buffer states.
const (
	Invalid  State = iota // no contents; on the free list
	Fetching              // disk transfer in flight
	Ready                 // contents valid
	// Failed: the fill failed and pinned waiters have not all drained
	// yet. The buffer is already out of the block index (a retry may
	// refetch the block immediately); the frame recycles when the last
	// pin drops. Only fault injection produces this state.
	Failed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case Fetching:
		return "fetching"
	case Ready:
		return "ready"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// ErrorSource is the transfer backing a fill. The disk layer's
// *Request implements it. The cache consults FetchError when the fill's
// completion event fires, to decide between Ready and Failed, and calls
// Release once the fill has completed and the frame has no pins: from
// then on no party can still be waiting on the transfer's completion
// event, so its record may be reused.
type ErrorSource interface {
	FetchError() error
	Release()
}

// Buffer is one cache frame, 88 bytes. The struct is deliberately
// narrow: frame ids, block numbers, node ids, and pin counts all fit in
// 31 bits (New rejects larger populations), and with three frames per
// node on a million-node machine every field here is megabytes of live
// heap.
type Buffer struct {
	id    int32
	block int32 // logical block held, or -1 when Invalid
	pins  int32
	// home is the node whose processor fetched the block: on a NUMA
	// machine the buffer memory lives there, and other nodes pay remote
	// references to copy from it (paper footnote 1). An unconsumed
	// prefetch counts against its home node's prefetch allowance.
	home int32

	// state/class are one byte each; class is fixed at construction.
	state State
	class Class
	// prefetched is true from prefetch allocation until first use.
	prefetched bool
	// retired is set when a capacity squeeze permanently removes the
	// frame from service: it sits Invalid, off every list, and is never
	// claimed again.
	retired bool
	// list is the intrusive list the frame is on, linked through
	// prev/next below.
	list listKind

	// IODone fires when the in-flight transfer completes. Valid while
	// Fetching (and afterwards, fired).
	IODone *sim.Event
	// fetchSrc classifies the transfer's outcome when IODone fires
	// (nil when the caller cannot fail, e.g. tests driving bare
	// events), and is released once the fill has completed and the
	// frame has no pins. A Failed frame is pinned, so it still holds
	// its source, whose error FillErr reports while waiters drain.
	fetchSrc ErrorSource
	// fetchStarted records when the transfer was enqueued; fetchDone is
	// the file system's completion estimate (exact for FIFO disks with
	// fixed access time), used for idle-time planning.
	fetchStarted sim.Time
	fetchDone    sim.Time

	// Intrusive linkage, shared by the free list, the reusable LRU list
	// and the prefetched-unconsumed order list. The three memberships
	// are mutually exclusive — free requires Invalid, the LRU requires
	// Ready and not prefetched, pfOrder requires prefetched — so one
	// pair of links and one list field serve all three; Audit enforces
	// the exclusions.
	prev, next *Buffer

	owner *Cache // for the fetch-completion continuation's Wake
}

// Wake transitions the buffer when its in-flight transfer's completion
// event fires: to Ready normally, or through the failed-fill path if
// the transfer reported an error. The buffer itself is the
// continuation (sim.Waiter) that BeginFetch registers, so the
// unready-hit wakeup path allocates nothing and runs entirely in
// kernel context.
func (b *Buffer) Wake() {
	if b.fetchSrc != nil && b.fetchSrc.FetchError() != nil {
		b.owner.failFetch(b)
		return
	}
	b.owner.markReady(b)
}

// FillErr returns the error that failed the buffer's fill, or nil.
// Waiters woken by a fill completion must check it before using the
// contents; on error they Unpin and retry the block.
func (b *Buffer) FillErr() error {
	if b.state != Failed {
		return nil
	}
	return b.fetchSrc.FetchError()
}

// Block returns the logical block held (or -1).
func (b *Buffer) Block() int { return int(b.block) }

// State returns the buffer's lifecycle state.
func (b *Buffer) State() State { return b.state }

// Pins returns the current pin count.
func (b *Buffer) Pins() int { return int(b.pins) }

// Prefetched reports whether the buffer holds a prefetched block that no
// process has used yet.
func (b *Buffer) Prefetched() bool { return b.prefetched }

// Home returns the node whose processor fetched the block (where the
// buffer memory lives on a NUMA machine).
func (b *Buffer) Home() int { return int(b.home) }

// FetchDone returns the file system's estimate of when the in-flight
// (or completed) transfer completes, derived from the disk queue state
// at submission and used to estimate remaining idle time.
func (b *Buffer) FetchDone() sim.Time { return b.fetchDone }

// PrefetchFail classifies why a prefetch allocation could not proceed.
type PrefetchFail int

// Prefetch allocation outcomes.
const (
	PrefetchOK      PrefetchFail = iota
	FailInCache                  // block already cached (not an error; pick another block)
	FailGlobalLimit              // prefetched-unused global cap reached
	FailNodeLimit                // per-node cap reached (per-node policy only)
	FailNoBuffer                 // no free or reusable frame
)

// String names the outcome.
func (f PrefetchFail) String() string {
	switch f {
	case PrefetchOK:
		return "ok"
	case FailInCache:
		return "in-cache"
	case FailGlobalLimit:
		return "global-limit"
	case FailNodeLimit:
		return "node-limit"
	case FailNoBuffer:
		return "no-buffer"
	}
	return fmt.Sprintf("PrefetchFail(%d)", int(f))
}

// Class partitions the frame population: the paper allocates the
// prefetch buffers separately from the per-processor demand buffers
// ("three additional buffers per processor node ... to be used only for
// prefetching"). A frame never changes class; a consumed prefetched
// block keeps occupying a prefetch-class frame until it is recycled,
// which is what lets prefetch attempts fail for lack of a free buffer
// even when the prefetched-unused counters have room — the paper's lfp
// waste mechanism.
type Class uint8

// Frame classes.
const (
	DemandClass Class = iota
	PrefetchClass
)

// String names the class.
func (c Class) String() string {
	if c == DemandClass {
		return "demand"
	}
	return "prefetch"
}

// Options configures a Cache.
type Options struct {
	// DemandFrames is the number of demand-class buffer frames (one per
	// processor per RU-set slot in the paper).
	DemandFrames int
	// PrefetchFrames is the number of prefetch-class frames (three per
	// processor in the paper; zero disables prefetch allocation). It
	// also caps the blocks prefetched but not yet used, globally.
	PrefetchFrames int
	// Nodes is the number of processor nodes (for per-node accounting).
	Nodes int
	// MaxPerNodePrefetched, if non-zero, additionally caps the
	// prefetched-unused blocks attributed to each node (strict per-node
	// buffer allocation).
	MaxPerNodePrefetched int
	// EvictablePrefetched lets a prefetch allocation recycle the oldest
	// never-used prefetched block (Ready, unconsumed) when no other
	// frame is available. The paper's oracle policies never mispredict,
	// so unconsumed prefetches always get used eventually; on-the-fly
	// predictors DO mispredict, and without this option their mistakes
	// would permanently clog the prefetch pool.
	EvictablePrefetched bool
}

// Stats counts cache activity. Hits and misses follow the paper's
// definitions: an access that finds a buffer reserved for its block is a
// hit even if the data have not arrived (an "unready hit").
type Stats struct {
	ReadyHits   int64
	UnreadyHits int64
	Misses      int64 // demand fetches
	// PrefetchesIssued counts successful prefetch allocations;
	// PrefetchesConsumed counts the first use of a prefetched block.
	PrefetchesIssued   int64
	PrefetchesConsumed int64
	// PrefetchFails counts failed attempts by reason.
	FailsGlobalLimit int64
	FailsNodeLimit   int64
	FailsNoBuffer    int64
	Evictions        int64
	// PrefetchesEvicted counts prefetched blocks recycled before any
	// process used them: the cost of mispredictions (EvictablePrefetched
	// only).
	PrefetchesEvicted int64
	// FailedFills counts fills that completed with an error (fault
	// injection); FailedPrefetchFills is the subset that were
	// unconsumed speculative fills, demoted silently.
	FailedFills         int64
	FailedPrefetchFills int64
}

// Accesses returns the total number of block read requests observed.
func (s *Stats) Accesses() int64 { return s.ReadyHits + s.UnreadyHits + s.Misses }

// HitRatio returns the fraction of accesses that were (ready or unready)
// hits.
func (s *Stats) HitRatio() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.ReadyHits+s.UnreadyHits) / float64(a)
}

// MissRatio returns 1 - HitRatio for non-empty stats.
func (s *Stats) MissRatio() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses) / float64(a)
}

// Cache is the shared block cache. Every path runs on the simulation
// kernel's one goroutine at a time. Lookup and Contains only read, so
// other goroutines may call them while nothing mutates the cache.
type Cache struct {
	k    *sim.Kernel
	opts Options

	arena []Buffer
	idx   blockIndex // resident block → its frame
	// Per-class intrusive free lists and reusable LRU lists. A
	// reusable frame is Ready, unpinned, and not an unconsumed
	// prefetch; it still satisfies lookups until recycled.
	free [2]bufList
	lru  [2]bufList

	prefetchedUnused int
	perNode          []int
	// retired counts frames permanently removed by a capacity squeeze.
	retired int
	// pfOrder lists prefetched-unused buffers oldest first, for
	// mistake eviction under EvictablePrefetched. Intrusive (through
	// the shared prev/next links) so that consuming a prefetch unlinks
	// in O(1): with one unconsumed prefetch per node, a slice here
	// turns cluster-scale runs quadratic in the node count.
	pfOrder bufList

	stats Stats

	// onPrefetchDemote, when set, is called with the block id each time
	// a failed fill silently demotes an unconsumed prefetch — the one
	// drop that removes a block ahead of the demand cursor. The engine
	// registers its prefetch source's Demote; the oracle policy's
	// monotone scan cursor hangs its fault-run exactness on it. Runs in
	// kernel context.
	onPrefetchDemote func(block int)

	// doneSentinel is a single pre-fired event swapped into IODone when
	// a fill completes successfully. Post-completion readers only ever
	// ask Fired() (a processor's waits return before touching anything
	// else on a fired event). The real event is embedded in a disk
	// request, which is recycled for another transfer once the frame
	// releases it, so a Ready frame must not keep pointing into it: a
	// later reader would find an unrelated transfer's unfired event.
	doneSentinel *sim.Event

	// Freed wakes processes waiting for a frame to become available.
	Freed *sim.WaitQueue
}

// SetPrefetchDemoteHook registers fn to be called whenever a failed
// fill demotes an unconsumed prefetched block (see onPrefetchDemote).
func (c *Cache) SetPrefetchDemoteHook(fn func(block int)) { c.onPrefetchDemote = fn }

// fillSpan reports a completed fill to o, on the home node's track. Arg
// bit 0 marks an (unconsumed) prefetch fill, bit 1 a failed one.
func (c *Cache) fillSpan(o obs.Sink, buf *Buffer, block int, failed bool) {
	var arg int64
	if buf.prefetched {
		arg = 1
	}
	if failed {
		arg |= 2
	}
	o.Span(obs.Span{
		Track: obs.ProcTrack(int(buf.home)), Kind: obs.SpanCacheFill,
		Start: int64(buf.fetchStarted), End: int64(c.k.Now()),
		Block: block, Arg: arg,
	})
}

// New creates a cache.
func New(k *sim.Kernel, opts Options) *Cache {
	if opts.DemandFrames <= 0 {
		panic("cache: need at least one demand frame")
	}
	if opts.PrefetchFrames < 0 {
		panic("cache: negative prefetch frame count")
	}
	if opts.Nodes <= 0 {
		panic("cache: non-positive node count")
	}
	total := opts.DemandFrames + opts.PrefetchFrames
	if total > math.MaxInt32 {
		panic("cache: frame population exceeds int32 ids")
	}
	c := &Cache{
		k:       k,
		opts:    opts,
		free:    [2]bufList{{kind: onFree}, {kind: onFree}},
		lru:     [2]bufList{{kind: onLRU}, {kind: onLRU}},
		pfOrder: bufList{kind: onPF},
		perNode: make([]int, opts.Nodes),
		Freed:   sim.NewWaitQueue(k).SetLabel("a freed cache frame"),
	}
	c.doneSentinel = sim.NewEvent(k).SetLabel("a completed fill")
	c.doneSentinel.Fire()
	c.idx = newBlockIndex(total)
	// Frames live in one contiguous allocation; every list threads
	// through the structs in place. At cluster scale this keeps
	// per-frame overhead to the struct itself — no pointer slab to
	// allocate or for the GC to scan.
	c.arena = make([]Buffer, total)
	for i := range c.arena {
		class := DemandClass
		if i >= opts.DemandFrames {
			class = PrefetchClass
		}
		b := &c.arena[i]
		b.id, b.block, b.class, b.owner = int32(i), -1, class, c
		c.free[class].pushHead(b)
	}
	return c
}

// Capacity returns the total number of frames.
func (c *Cache) Capacity() int { return c.opts.DemandFrames + c.opts.PrefetchFrames }

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// PrefetchedUnused returns the number of prefetched blocks not yet used.
func (c *Cache) PrefetchedUnused() int { return c.prefetchedUnused }

// AvailableFrames returns how many frames of the class could be claimed
// right now (free plus reusable).
func (c *Cache) AvailableFrames(class Class) int {
	return c.free[class].len + c.lru[class].len
}

// Lookup returns the buffer holding the block, or nil. It does not pin
// or record a hit; use Pin for the access path.
func (c *Cache) Lookup(block int) *Buffer {
	if f := c.idx.get(block); f >= 0 {
		return &c.arena[f]
	}
	return nil
}

// Contains reports whether the block is present (fetching or ready).
func (c *Cache) Contains(block int) bool { return c.idx.get(block) >= 0 }

// Pin records an access by node to an existing buffer: the hit path.
// It pins the buffer, removes it from the reusable list if necessary,
// consumes prefetch accounting on first use, and classifies the hit.
// The caller must have obtained buf from Lookup for the same block.
func (c *Cache) Pin(node int, buf *Buffer) (ready bool) {
	if buf.state == Invalid || buf.state == Failed {
		panic(fmt.Sprintf("cache: Pin on %v buffer", buf.state))
	}
	if buf.list == onLRU {
		c.lru[buf.class].remove(buf)
	}
	buf.pins++
	o := c.k.Observer()
	if buf.prefetched {
		buf.prefetched = false
		c.prefetchedUnused--
		c.perNode[buf.home]--
		c.stats.PrefetchesConsumed++
		if o != nil {
			o.Add(obs.CtrCachePrefetchesConsumed, 1)
		}
		c.dropFromOrder(buf)
		// A prefetch slot opened up; prefetchers poll rather than block,
		// but a demand fetch may be waiting for a frame.
		c.Freed.WakeAll()
	}
	if buf.state == Ready {
		c.stats.ReadyHits++
		if o != nil {
			o.Add(obs.CtrCacheReadyHits, 1)
		}
		return true
	}
	c.stats.UnreadyHits++
	if o != nil {
		o.Add(obs.CtrCacheUnreadyHits, 1)
	}
	return false
}

// AllocateDemand claims a demand-class frame for a demand fetch of
// block by node. It returns nil if no frame is available (the caller
// should sleep on Freed and retry). On success the buffer is Fetching,
// pinned once, and registered in the block index; the caller must submit
// the disk request and call BeginFetch.
func (c *Cache) AllocateDemand(node, block int) *Buffer {
	if c.Contains(block) {
		panic(fmt.Sprintf("cache: AllocateDemand for cached block %d", block))
	}
	buf := c.claimFrame(DemandClass)
	if buf == nil {
		return nil
	}
	c.stats.Misses++
	if o := c.k.Observer(); o != nil {
		o.Add(obs.CtrCacheMisses, 1)
	}
	buf.block = int32(block)
	buf.state = Fetching
	buf.pins = 1
	buf.home = int32(node)
	c.idx.put(buf.block, buf.id)
	return buf
}

// AllocateWrite claims a demand-class frame for freshly written data:
// the block's entire contents are being replaced, so no read I/O is
// needed and the buffer is immediately Ready, pinned once. Used by the
// fs layer's write path (the testbed itself is read-only, as in the
// paper).
func (c *Cache) AllocateWrite(node, block int) *Buffer {
	if c.Contains(block) {
		panic(fmt.Sprintf("cache: AllocateWrite for cached block %d", block))
	}
	buf := c.claimFrame(DemandClass)
	if buf == nil {
		return nil
	}
	buf.block = int32(block)
	buf.state = Ready
	buf.pins = 1
	buf.home = int32(node)
	c.idx.put(buf.block, buf.id)
	return buf
}

// Retain adds a pin without recording a cache access — used to keep a
// buffer resident while an asynchronous operation (e.g. a write-back)
// is in flight. Pair with Unpin.
func (c *Cache) Retain(buf *Buffer) {
	if buf.state == Invalid {
		panic("cache: Retain on invalid buffer")
	}
	if buf.list == onLRU {
		c.lru[buf.class].remove(buf)
	}
	buf.pins++
}

// CanPrefetch reports whether the prefetched-unused limits allow a
// prefetch by node right now. It is the cheap O(1) counter check a
// prefetcher makes before committing to an action; frame scarcity is
// deliberately NOT probed here — discovering there is no free frame
// requires hunting through the buffer lists, i.e. a failed (and costly)
// prefetch action, as the paper observed in its lfp experiments.
func (c *Cache) CanPrefetch(node int) PrefetchFail {
	if c.prefetchedUnused >= c.opts.PrefetchFrames {
		// With mistake eviction enabled, a full pool may still admit a
		// prefetch by recycling a misprediction — but finding one costs
		// a real (possibly failed) action, so the cheap check passes.
		if !c.opts.EvictablePrefetched {
			return FailGlobalLimit
		}
	}
	if c.opts.MaxPerNodePrefetched > 0 && c.perNode[node] >= c.opts.MaxPerNodePrefetched {
		return FailNodeLimit
	}
	return PrefetchOK
}

// AllocatePrefetch claims a prefetch-class frame for a prefetch of
// block by node, enforcing the prefetched-unused limits. On success the
// buffer is Fetching, unpinned, flagged prefetched, and registered; the
// caller must submit the disk request and call BeginFetch.
func (c *Cache) AllocatePrefetch(node, block int) (*Buffer, PrefetchFail) {
	if c.Contains(block) {
		return nil, FailInCache
	}
	if c.opts.MaxPerNodePrefetched > 0 && c.perNode[node] >= c.opts.MaxPerNodePrefetched {
		c.stats.FailsNodeLimit++
		return nil, FailNodeLimit
	}
	var buf *Buffer
	if c.prefetchedUnused >= c.opts.PrefetchFrames {
		// Over the prefetched-unused cap: only mistake eviction can
		// admit this prefetch (it frees both a slot and a frame).
		if c.opts.EvictablePrefetched {
			buf = c.evictUnconsumedPrefetch()
		}
		if buf == nil {
			c.stats.FailsGlobalLimit++
			return nil, FailGlobalLimit
		}
	} else {
		buf = c.claimFrame(PrefetchClass)
		if buf == nil && c.opts.EvictablePrefetched {
			buf = c.evictUnconsumedPrefetch()
		}
	}
	if buf == nil {
		c.stats.FailsNoBuffer++
		return nil, FailNoBuffer
	}
	buf.block = int32(block)
	buf.state = Fetching
	buf.prefetched = true
	buf.home = int32(node)
	c.idx.put(buf.block, buf.id)
	c.prefetchedUnused++
	c.perNode[node]++
	c.pfOrder.pushTail(buf)
	c.stats.PrefetchesIssued++
	if o := c.k.Observer(); o != nil {
		o.Add(obs.CtrCachePrefetchesIssued, 1)
	}
	return buf, PrefetchOK
}

// evictUnconsumedPrefetch recycles the oldest Ready, never-used
// prefetched block — a misprediction that is costing a frame. Blocks
// whose I/O is still in flight are not touched.
func (c *Cache) evictUnconsumedPrefetch() *Buffer {
	for b := c.pfOrder.head; b != nil; b = b.next {
		if b.prefetched && b.state == Ready {
			c.pfOrder.remove(b)
			b.prefetched = false
			c.prefetchedUnused--
			c.perNode[b.home]--
			c.stats.PrefetchesEvicted++
			c.stats.Evictions++
			c.idx.del(b.block)
			b.block = -1
			b.state = Invalid
			b.IODone = nil
			return b
		}
	}
	return nil
}

// BeginFetchFrom associates an in-flight disk transfer with the
// buffer: the buffer becomes Ready the moment done fires (before any
// waiter resumes). estDone is the completion estimate available at
// submission, kept for idle-time planning. src, when non-nil, is
// consulted when done fires, and a reported error routes the buffer
// through the failed-fill path (waiters wake with the error via
// FillErr; an unconsumed prefetch is demoted silently) instead of
// Ready. If done has already fired — a submission refused by a dead
// disk — the transition happens before BeginFetchFrom returns.
func (c *Cache) BeginFetchFrom(buf *Buffer, done *sim.Event, estDone sim.Time, src ErrorSource) {
	if buf.state != Fetching {
		panic("cache: BeginFetch on buffer not in Fetching state")
	}
	buf.IODone = done
	buf.fetchSrc = src
	buf.fetchStarted = c.k.Now()
	buf.fetchDone = estDone
	done.AddWaiter(buf)
}

func (c *Cache) markReady(buf *Buffer) {
	if buf.state != Fetching {
		panic(fmt.Sprintf("cache: markReady on %v buffer", buf.state))
	}
	if o := c.k.Observer(); o != nil {
		c.fillSpan(o, buf, int(buf.block), false)
	}
	buf.state = Ready
	// Swap the fill's event for the shared fired sentinel: readers
	// after this point only check Fired(), and the real event belongs
	// to a disk request that is recycled once released.
	buf.IODone = c.doneSentinel
	if buf.pins == 0 {
		c.releaseSrc(buf)
	}
	// A ready, unpinned, non-prefetched buffer would be reusable, but
	// that combination cannot arise here: demand fetches stay pinned by
	// their requester and prefetched buffers await consumption.
}

// releaseSrc releases a completed fill's source once the frame has no
// pins: every party that could still be waiting on its completion
// event held one.
func (c *Cache) releaseSrc(buf *Buffer) {
	if src := buf.fetchSrc; src != nil {
		buf.fetchSrc = nil
		src.Release()
	}
}

// failFetch handles a fill whose transfer completed with an error. The
// buffer leaves the block index immediately — a retry may refetch the
// block into a fresh frame while old waiters drain. An unconsumed
// prefetch demotes silently (accounting dropped, frame recycled: a
// failed speculation costs nothing but the attempt); a pinned buffer
// parks in Failed, holding the failed source, until the last waiter
// Unpins.
func (c *Cache) failFetch(buf *Buffer) {
	if buf.state != Fetching {
		panic(fmt.Sprintf("cache: failFetch on %v buffer", buf.state))
	}
	c.stats.FailedFills++
	if o := c.k.Observer(); o != nil {
		o.Add(obs.CtrCacheFailedFills, 1)
		c.fillSpan(o, buf, int(buf.block), true)
	}
	block := int(buf.block)
	c.idx.del(buf.block)
	buf.block = -1
	if buf.prefetched {
		// Unconsumed prefetches are never pinned (invariant), so the
		// frame can recycle on the spot.
		c.stats.FailedPrefetchFills++
		buf.prefetched = false
		c.prefetchedUnused--
		c.perNode[buf.home]--
		c.dropFromOrder(buf)
		c.recycle(buf)
		if c.onPrefetchDemote != nil {
			c.onPrefetchDemote(block)
		}
		return
	}
	if buf.pins == 0 {
		c.recycle(buf)
		return
	}
	buf.state = Failed
}

// recycle returns a frame whose fill failed to its class free list,
// releasing the fill's source: the frame has no pins left.
func (c *Cache) recycle(buf *Buffer) {
	c.releaseSrc(buf)
	buf.state = Invalid
	buf.IODone = nil
	c.free[buf.class].pushHead(buf)
	c.Freed.WakeAll()
}

// Unpin releases one pin. When the last pin drops from a Ready buffer,
// its completed fill's source is released, and unless the buffer is an
// unconsumed prefetch the frame joins its class's reusable list (still
// satisfying lookups) and a waiter, if any, is woken.
func (c *Cache) Unpin(buf *Buffer) {
	if buf.pins <= 0 {
		panic("cache: Unpin without pin")
	}
	buf.pins--
	if buf.pins == 0 && buf.state == Failed {
		c.recycle(buf)
		return
	}
	if buf.pins == 0 && buf.state == Ready {
		c.releaseSrc(buf)
		if !buf.prefetched {
			c.lru[buf.class].pushTail(buf)
			c.Freed.WakeAll()
		}
	}
}

func (c *Cache) dropFromOrder(buf *Buffer) {
	if buf.list == onPF {
		c.pfOrder.remove(buf)
	}
}

// claimFrame takes an invalid frame of the class from its free list, or
// recycles the class's least recently used reusable frame.
func (c *Cache) claimFrame(class Class) *Buffer {
	if buf := c.free[class].popHead(); buf != nil {
		return buf
	}
	buf := c.lru[class].popHead()
	if buf == nil {
		return nil
	}
	c.stats.Evictions++
	c.idx.del(buf.block)
	buf.block = -1
	buf.state = Invalid
	buf.IODone = nil
	return buf
}

// WastedPrefetches returns how many prefetched blocks were never used.
// Meaningful at the end of a run.
func (c *Cache) WastedPrefetches() int64 {
	return c.stats.PrefetchesIssued - c.stats.PrefetchesConsumed
}

// Squeeze permanently retires up to n idle prefetch-class frames — an
// injectable capacity squeeze modelling memory pressure from outside
// the file system. Frames are taken exactly as a prefetch allocation
// would claim them (free list first, then the reusable LRU, evicting
// the cached block), so pinned and in-flight buffers are never
// touched; demand-class frames are exempt, which guarantees the squeeze
// alone can never wedge demand fetching. It returns how many frames
// were actually retired (fewer than n when the class runs dry).
func (c *Cache) Squeeze(n int) int {
	retired := 0
	for retired < n {
		buf := c.claimFrame(PrefetchClass)
		if buf == nil {
			break
		}
		buf.retired = true
		c.retired++
		retired++
	}
	return retired
}

// Retired returns how many frames capacity squeezes have permanently
// removed from service.
func (c *Cache) Retired() int { return c.retired }

// CheckInvariants panics if internal bookkeeping is inconsistent. Tests
// and the engine's debug mode call it; the runtime invariant auditor
// uses Audit directly so it can name the violated invariant.
func (c *Cache) CheckInvariants() {
	if err := c.Audit(); err != nil {
		panic(err.Error())
	}
}

// Audit checks the cache's internal bookkeeping — free-list and LRU
// membership, pin counts, fill states, fill sources, prefetched-unused
// accounting, retired frames — returning a descriptive error on the
// first inconsistency. It never mutates state.
func (c *Cache) Audit() error {
	for class := DemandClass; class <= PrefetchClass; class++ {
		walked := 0
		for b := c.free[class].head; b != nil; b = b.next {
			if b.state != Invalid || b.block != -1 || b.pins != 0 || b.list != onFree || b.class != class || b.retired {
				return fmt.Errorf("cache: corrupt free buffer %d", b.id)
			}
			if walked++; walked > c.free[class].len {
				return fmt.Errorf("cache: %s free list longer than its count (cycle?)", class)
			}
		}
		if walked != c.free[class].len {
			return fmt.Errorf("cache: %s free list count %d, walked %d", class, c.free[class].len, walked)
		}
	}
	if err := c.idx.audit(c.arena); err != nil {
		return err
	}
	pf := 0
	perNode := make([]int, c.opts.Nodes)
	retired := 0
	for i := range c.arena {
		b := &c.arena[i]
		if b.retired {
			retired++
			if b.state != Invalid || b.block != -1 || b.pins != 0 || b.list != noList || b.prefetched {
				return fmt.Errorf("cache: retired buffer %d still in service", b.id)
			}
			continue
		}
		if b.prefetched {
			if b.pins != 0 {
				return fmt.Errorf("cache: prefetched-unused buffer %d is pinned", b.id)
			}
			if b.class != PrefetchClass {
				return fmt.Errorf("cache: prefetched block in demand frame %d", b.id)
			}
			pf++
			perNode[b.home]++
		}
		if b.list == onLRU && (b.pins != 0 || b.state != Ready || b.prefetched) {
			return fmt.Errorf("cache: buffer %d on LRU in wrong state", b.id)
		}
		if b.list == onFree && b.state != Invalid {
			return fmt.Errorf("cache: buffer %d on free list in wrong state", b.id)
		}
		if b.state == Invalid && b.list != onFree && !b.retired {
			return fmt.Errorf("cache: invalid buffer %d off the free list", b.id)
		}
		if b.state == Failed && (b.block != -1 || b.pins == 0 || b.prefetched || b.list != noList) {
			return fmt.Errorf("cache: failed buffer %d in wrong state", b.id)
		}
		// FillErr reads a Failed frame's error from the source it holds,
		// so the source must report one, and a Ready frame's must not.
		if b.state == Failed && (b.fetchSrc == nil || b.fetchSrc.FetchError() == nil) {
			return fmt.Errorf("cache: failed buffer %d holds no failed fill source", b.id)
		}
		if b.state == Ready && b.fetchSrc != nil && b.fetchSrc.FetchError() != nil {
			return fmt.Errorf("cache: ready buffer %d holds a failed fill source", b.id)
		}
		if b.fetchSrc != nil && b.state != Fetching && b.pins == 0 {
			// The source should have been released when the fill
			// completed or the last pin dropped; its record may already
			// serve another transfer.
			return fmt.Errorf("cache: unpinned %v buffer %d still holds its fill source", b.state, b.id)
		}
	}
	if retired != c.retired {
		return fmt.Errorf("cache: retired=%d but counted %d", c.retired, retired)
	}
	if pf != c.prefetchedUnused {
		return fmt.Errorf("cache: prefetchedUnused=%d but counted %d", c.prefetchedUnused, pf)
	}
	if c.pfOrder.len != pf {
		return fmt.Errorf("cache: pfOrder has %d entries, want %d", c.pfOrder.len, pf)
	}
	walked := 0
	for b := c.pfOrder.head; b != nil; b = b.next {
		if !b.prefetched {
			return fmt.Errorf("cache: consumed buffer %d still in pfOrder", b.id)
		}
		if b.list != onPF {
			return fmt.Errorf("cache: pfOrder buffer %d with conflicting list membership", b.id)
		}
		walked++
	}
	if walked != c.pfOrder.len {
		return fmt.Errorf("cache: pfOrder links walk %d entries, len says %d", walked, c.pfOrder.len)
	}
	for n, v := range perNode {
		if v != c.perNode[n] {
			return fmt.Errorf("cache: perNode[%d]=%d but counted %d", n, c.perNode[n], v)
		}
	}
	for class := DemandClass; class <= PrefetchClass; class++ {
		if c.lru[class].len < 0 || c.lru[class].len > c.Capacity() {
			return fmt.Errorf("cache: LRU length out of range")
		}
	}
	return nil
}

// listKind names the intrusive list a frame is on.
type listKind uint8

const (
	noList listKind = iota
	onFree
	onLRU
	onPF
)

// bufList is an intrusive doubly-linked list of buffers threaded
// through Buffer's prev/next links: no backing array to grow, no
// pointer slab for the GC to scan, and O(1) push, pop and removal. A
// free list pushes and pops at the head, so the most recently freed
// frame is claimed first; an LRU list, least recently used first, and
// the prefetch order, oldest first, push at the tail. kind is the
// membership its frames carry.
type bufList struct {
	head, tail *Buffer
	len        int
	kind       listKind
}

// join marks b as a member of the list; a frame is on at most one.
func (l *bufList) join(b *Buffer) {
	if b.list != noList {
		panic("cache: buffer already on a list")
	}
	b.list = l.kind
	l.len++
}

func (l *bufList) pushHead(b *Buffer) {
	l.join(b)
	b.prev, b.next = nil, l.head
	if l.head != nil {
		l.head.prev = b
	} else {
		l.tail = b
	}
	l.head = b
}

func (l *bufList) pushTail(b *Buffer) {
	l.join(b)
	b.prev, b.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = b
	} else {
		l.head = b
	}
	l.tail = b
}

func (l *bufList) remove(b *Buffer) {
	if b.list != l.kind {
		panic("cache: removing buffer not on the list")
	}
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.tail = b.prev
	}
	b.prev, b.next = nil, nil
	b.list = noList
	l.len--
}

func (l *bufList) popHead() *Buffer {
	b := l.head
	if b != nil {
		l.remove(b)
	}
	return b
}
