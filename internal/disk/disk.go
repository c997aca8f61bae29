// Package disk models the parallel, independent disks of the testbed.
//
// Each disk is a single server with a FIFO queue and a fixed physical
// access time (30 ms in the paper). The paper's testbed simulated its
// disks the same way; what is real in both systems is the *queueing*:
// when many requests land on one disk in a short window, the disk
// response time (enqueue → completion) grows beyond the physical access
// time, and that growth is the paper's measure of disk contention
// (Fig. 7).
//
// Beyond the paper's fixed 30 ms and FIFO order, an optional seek model
// charges extra service time proportional to head travel between
// physical blocks, and the request queue can be scheduled SSTF
// (shortest seek time first) or SCAN (elevator) — which only matters
// once seeks cost something. Under the paper's configuration (fixed
// access, FIFO) the behaviour is exactly the paper's.
package disk

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Profile describes a disk's service-time model. The zero value is not
// valid; Access must be positive. With SeekPerBlock zero the disk has
// the paper's fixed access time.
type Profile struct {
	// Access is the base (transfer + average rotation) time.
	Access sim.Duration
	// SeekPerBlock adds service time per physical block of head travel
	// from the previous request's position.
	SeekPerBlock sim.Duration
	// MaxSeek caps the seek component (full-stroke time). Zero with a
	// non-zero SeekPerBlock means uncapped.
	MaxSeek sim.Duration
}

// Fixed returns the paper's constant-service profile.
func Fixed(access sim.Duration) Profile { return Profile{Access: access} }

// ServiceTime returns the service time for a request at physical block
// `to` when the head sits at `from` (from < 0 means first request, no
// seek).
func (p Profile) ServiceTime(from, to int) sim.Duration {
	t := p.Access
	if p.SeekPerBlock > 0 && from >= 0 {
		dist := to - from
		if dist < 0 {
			dist = -dist
		}
		seek := sim.Duration(dist) * p.SeekPerBlock
		if p.MaxSeek > 0 && seek > p.MaxSeek {
			seek = p.MaxSeek
		}
		t += seek
	}
	return t
}

// SchedPolicy selects the order in which a disk serves its queue.
type SchedPolicy int

// Queue scheduling policies.
const (
	// FIFO serves requests in arrival order — the paper's model.
	FIFO SchedPolicy = iota
	// SSTF serves the request with the shortest seek from the current
	// head position (ties: arrival order).
	SSTF
	// SCAN sweeps the head in one direction, serving requests in
	// position order, then reverses (the elevator algorithm).
	SCAN
)

// SchedPolicies lists the scheduling policies.
var SchedPolicies = []SchedPolicy{FIFO, SSTF, SCAN}

// String names the policy.
func (s SchedPolicy) String() string {
	switch s {
	case FIFO:
		return "fifo"
	case SSTF:
		return "sstf"
	case SCAN:
		return "scan"
	}
	return fmt.Sprintf("SchedPolicy(%d)", int(s))
}

// ParseSchedPolicy converts a policy name to a SchedPolicy.
func ParseSchedPolicy(s string) (SchedPolicy, error) {
	for _, p := range SchedPolicies {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("disk: unknown scheduling policy %q", s)
}

// Request is one block transfer in flight (or completed). It carries the
// timing fields used by the paper's measures. Started and Done are
// assigned when the disk dispatches and completes the request; EstDone
// is the file system's estimate at submission (exact under FIFO with a
// fixed access time).
//
// Records are recycled through their array's free list. A request
// carries two holds and is reused only once both are dropped: the
// disk's, dropped after Complete has fired, and the consumer's, dropped
// by Release (DESIGN.md, "Disk request records").
type Request struct {
	Disk     int
	Block    int       // logical file block, for tracing
	Physical int       // physical block on the disk
	Prefetch bool      // issued by the prefetcher rather than on demand
	holds    uint8     // holdDisk | holdConsumer while in use; 0 on the free list
	Enqueued sim.Time  // when the request joined the disk queue
	Started  sim.Time  // when the disk began servicing it
	Done     sim.Time  // when the transfer completed
	EstDone  sim.Time  // completion estimate available at submission
	Complete sim.Event // fires at Done
	Err      error     // non-nil if the transfer failed (fault injection)

	owner *Disk // for the completion timer's Wake
}

// The two holds on a request record.
const (
	holdDisk     uint8 = 1 << iota // dropped once Complete has fired
	holdConsumer                   // dropped by Release
)

// Wake delivers the completion at Done: the request itself is the
// timer's continuation (sim.Waiter), so completing an I/O allocates no
// closure and resumes no goroutine beyond the processes actually
// waiting on Complete.
func (r *Request) Wake() { r.owner.complete(r) }

// Release drops the consumer's hold: the caller will not touch the
// request, or its Complete event, again. The record returns to its
// array's free list once the disk has dropped its hold too, so a
// release inside one of Complete's continuations is safe. A second
// Release panics. A consumer that never releases only forgoes the
// recycling.
func (r *Request) Release() {
	if r.holds&holdConsumer == 0 {
		panic(fmt.Sprintf("disk: request for block %d on disk %d released twice", r.Block, r.Disk))
	}
	r.holds &^= holdConsumer
	if r.holds == 0 {
		r.owner.arr.put(r)
	}
}

// drop releases the disk's hold on a request whose Complete has fired
// and returned.
func (d *Disk) drop(r *Request) {
	if r.holds&holdDisk == 0 {
		panic(fmt.Sprintf("disk %d: request for block %d dropped twice", d.id, r.Block))
	}
	r.holds &^= holdDisk
	if r.holds == 0 {
		d.arr.put(r)
	}
}

// ResponseTime is the paper's "effective disk access time": queueing
// delay plus physical access.
func (r *Request) ResponseTime() sim.Duration { return r.Done.Sub(r.Enqueued) }

// QueueDelay is the portion of the response time spent waiting for the
// disk.
func (r *Request) QueueDelay() sim.Duration { return r.Started.Sub(r.Enqueued) }

// Disk is a single simulated disk drive with a scheduled request queue.
type Disk struct {
	k       *sim.Kernel
	id      int
	profile Profile
	policy  SchedPolicy
	headPos int // physical position of the head; -1 before any request
	scanUp  bool

	// The waiting requests are queue[head:]. Serving the front advances
	// head rather than the slice base, so the backing array is kept for
	// enqueue to reuse.
	queue   []*Request
	head    int
	current *Request

	busy   sim.Duration // accumulated service time
	served int64
	resp   metrics.Summary // response times, ms
	qdelay metrics.Summary // queue delays, ms

	inj    *fault.Injector // nil = no fault injection (the common case)
	dead   bool            // permanently offline (fault.Config.KillAt)
	fstats FaultStats

	// Latency-storm window (fault.DomainConfig): requests dispatched in
	// [stormStart, stormEnd) have their service time multiplied by
	// stormFactor. Set once before the run starts, read-only after.
	stormStart  sim.Time
	stormEnd    sim.Time
	stormFactor float64

	obs obs.Sink // nil = no observability (the common case)

	arr *Array // owns the request free list
}

// SetObserver installs an observability sink: request counters at
// submission, queueing and transfer spans at completion. Requests a
// dead disk refuses (or flushes at its kill) complete outside the
// normal service path and emit no spans.
func (d *Disk) SetObserver(s obs.Sink) { d.obs = s }

// ID returns the disk's index within its array.
func (d *Disk) ID() int { return d.id }

// Profile returns the disk's service-time model.
func (d *Disk) Profile() Profile { return d.profile }

// Policy returns the disk's queue scheduling policy.
func (d *Disk) Policy() SchedPolicy { return d.policy }

// QueueLength returns the number of requests waiting (excluding the one
// in service).
func (d *Disk) QueueLength() int { return len(d.queue) - d.head }

// pending returns the waiting requests, oldest first.
func (d *Disk) pending() []*Request { return d.queue[d.head:] }

// Submit enqueues a read of the given logical block, stored at physical
// block phys on this disk, and returns the request. The request's
// Complete event fires when the transfer is done; callers that need the
// data (demand fetches, unready hits) wait on it, while prefetchers do
// not.
func (d *Disk) Submit(block, phys int, prefetch bool) *Request {
	if phys < 0 {
		panic(fmt.Sprintf("disk: negative physical block %d", phys))
	}
	if d.dead {
		return d.submitDead(block, phys, prefetch)
	}
	now := d.k.Now()
	req := d.arr.get()
	*req = Request{
		Disk:     d.id,
		Block:    block,
		Physical: phys,
		Prefetch: prefetch,
		holds:    holdDisk | holdConsumer,
		Enqueued: now,
		owner:    d,
	}
	req.Complete.Init(d.k, "disk I/O completion")
	// Completion estimate for the file system's idle-time planning:
	// exact under FIFO with a fixed access time, a heuristic otherwise.
	queued := d.QueueLength()
	base := now
	if d.current != nil {
		base = d.current.Done
	}
	req.EstDone = base.Add(sim.Duration(queued+1) * d.profile.Access)
	d.served++
	if d.obs != nil {
		d.obs.Add(obs.CtrDiskRequests, 1)
		if prefetch {
			d.obs.Add(obs.CtrDiskPrefetchRequests, 1)
		}
	}
	d.enqueue(req)
	if d.current == nil {
		d.dispatch()
	}
	return req
}

// enqueue appends req to the queue. When the backing array is full and
// at least half of it has been served, the waiting tail moves to the
// front (an empty queue rewinds) instead of growing a new array. Left
// to append, the next request to an idle disk would reallocate, and a
// disk busy for a whole run would carry every request it ever served.
func (d *Disk) enqueue(req *Request) {
	if n := len(d.queue); n == cap(d.queue) && d.head > 0 && 2*d.head >= n {
		live := copy(d.queue, d.queue[d.head:])
		clear(d.queue[live:])
		d.queue = d.queue[:live]
		d.head = 0
	}
	d.queue = append(d.queue, req)
}

// dispatch picks, times, and (when an injector is attached) faults the
// next request per the scheduling policy, moving it into service and
// scheduling its completion. Kernel or process context; must only be
// called when idle.
func (d *Disk) dispatch() {
	if d.head == len(d.queue) {
		d.current = nil
		return
	}
	now := d.k.Now()
	i := d.head + d.pickNext(now)
	req := d.queue[i]
	// Remove index i by shifting the waiting prefix right and advancing
	// head. For FIFO (i == head, the common case) this moves nothing;
	// removing by copying the suffix down would move the whole
	// remaining queue on every serve, which at cluster scale — 100k+
	// requests deep on a handful of disks — turns the run quadratic.
	copy(d.queue[d.head+1:i+1], d.queue[d.head:i])
	d.queue[d.head] = nil
	d.head++
	service := d.profile.ServiceTime(d.headPos, req.Physical)
	// Storms stretch the base service before the fault draw, so a spike
	// multiplies the stormed time and the timeout watchdog still caps
	// the result.
	if d.stormFactor > 1 && now >= d.stormStart && now < d.stormEnd {
		service = sim.Duration(float64(service) * d.stormFactor)
		d.fstats.Stormed++
	}
	if d.inj != nil {
		service = d.applyFaults(req, service)
	}
	if d.policy == SCAN && d.headPos >= 0 {
		d.scanUp = req.Physical >= d.headPos
	}
	d.headPos = req.Physical
	req.Started = now
	req.Done = now.Add(service)
	d.busy += service
	d.current = req
	d.k.ScheduleWake(req.Done, req)
}

func (d *Disk) complete(req *Request) {
	d.resp.Add(req.ResponseTime().Millis())
	d.qdelay.Add(req.QueueDelay().Millis())
	if d.obs != nil {
		arg := int64(0)
		if req.Prefetch {
			arg = 1
		}
		if req.Started > req.Enqueued {
			d.obs.Span(obs.Span{
				Track: obs.DiskTrack(d.id), Kind: obs.SpanDiskQueue,
				Start: int64(req.Enqueued), End: int64(req.Started),
				Block: req.Block, Arg: arg,
			})
		}
		if req.Err != nil {
			arg |= 2
			d.obs.Add(obs.CtrDiskFaultedRequests, 1)
		}
		d.obs.Span(obs.Span{
			Track: obs.DiskTrack(d.id), Kind: obs.SpanDiskTransfer,
			Start: int64(req.Started), End: int64(req.Done),
			Block: req.Block, Arg: arg,
		})
	}
	req.Complete.Fire()
	d.dispatch()
	d.drop(req)
}

// starvationBound caps how long a reordering policy may pass over the
// oldest pending request, in multiples of the base access time. SSTF
// famously starves distant requests when nearer ones keep arriving —
// with a prefetcher supplying an endless stream of near-head requests,
// an awaited demand fetch could otherwise wait forever (a livelock
// found by the configuration fuzzer). Aged SSTF serves the oldest
// request once it has waited this long.
const starvationBound = 32

// pickNext chooses the pending index to serve next at dispatch
// instant now.
func (d *Disk) pickNext(now sim.Time) int {
	pending := d.pending()
	if d.policy == FIFO || d.headPos < 0 || len(pending) == 1 {
		return 0
	}
	if now.Sub(pending[0].Enqueued) > sim.Duration(starvationBound)*d.profile.Access {
		return 0
	}
	switch d.policy {
	case SSTF:
		best, bestDist := 0, -1
		for i, r := range pending {
			dist := r.Physical - d.headPos
			if dist < 0 {
				dist = -dist
			}
			if bestDist < 0 || dist < bestDist {
				best, bestDist = i, dist
			}
		}
		return best
	case SCAN:
		// Nearest request in the sweep direction; reverse if none.
		pick := func(up bool) (int, bool) {
			best, bestDist := -1, -1
			for i, r := range pending {
				dist := r.Physical - d.headPos
				if !up {
					dist = -dist
				}
				if dist < 0 {
					continue
				}
				if bestDist < 0 || dist < bestDist {
					best, bestDist = i, dist
				}
			}
			return best, best >= 0
		}
		if i, ok := pick(d.scanUp); ok {
			return i
		}
		d.scanUp = !d.scanUp
		if i, ok := pick(d.scanUp); ok {
			return i
		}
		return 0
	}
	return 0
}

// Served returns the number of requests this disk has accepted.
func (d *Disk) Served() int64 { return d.served }

// BusyTime returns the total virtual time the disk spent transferring.
func (d *Disk) BusyTime() sim.Duration { return d.busy }

// ResponseStats returns summary statistics of response times in ms.
func (d *Disk) ResponseStats() metrics.Summary { return d.resp }

// QueueDelayStats returns summary statistics of queueing delays in ms.
func (d *Disk) QueueDelayStats() metrics.Summary { return d.qdelay }

// Utilization returns the fraction of the interval [0, end] the disk
// spent busy.
func (d *Disk) Utilization(end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	return float64(d.busy) / float64(sim.Duration(end))
}

// Array is a set of parallel independent disks. It recycles their
// request records through one free list.
type Array struct {
	disks []*Disk
	free  []*Request // released records, ready for reuse
	out   int        // records handed out and not yet back on free
}

// get hands out a request record, recycled when one is free.
func (a *Array) get() *Request {
	a.out++
	n := len(a.free)
	if n == 0 {
		return new(Request)
	}
	r := a.free[n-1]
	a.free[n-1] = nil
	a.free = a.free[:n-1]
	return r
}

// put takes back a record whose holds are both dropped. When it is the
// last one out, every queue is idle: the free list and the queues'
// backing arrays are dropped, so an array kept after its run retains
// none of them.
func (a *Array) put(r *Request) {
	a.out--
	if a.out > 0 {
		a.free = append(a.free, r)
		return
	}
	a.free = nil
	for _, d := range a.disks {
		d.queue, d.head = nil, 0
	}
}

// NewArray creates n disks, numbered 0 to n-1, sharing a service model
// and queue scheduling policy. It panics on an empty array, an invalid
// service model or an unknown policy.
func NewArray(k *sim.Kernel, n int, profile Profile, policy SchedPolicy) *Array {
	if n <= 0 {
		panic("disk: array needs at least one disk")
	}
	if profile.Access <= 0 {
		panic(fmt.Sprintf("disk: non-positive access time %v", profile.Access))
	}
	if profile.SeekPerBlock < 0 || profile.MaxSeek < 0 {
		panic("disk: negative seek parameters")
	}
	switch policy {
	case FIFO, SSTF, SCAN:
	default:
		panic(fmt.Sprintf("disk: unknown scheduling policy %d", int(policy)))
	}
	a := &Array{disks: make([]*Disk, n)}
	slab := make([]Disk, n)
	for i := range a.disks {
		slab[i] = Disk{k: k, id: i, profile: profile, policy: policy, headPos: -1, scanUp: true, arr: a}
		a.disks[i] = &slab[i]
	}
	return a
}

// Len returns the number of disks.
func (a *Array) Len() int { return len(a.disks) }

// SetObserver installs an observability sink on every disk.
func (a *Array) SetObserver(s obs.Sink) {
	for _, d := range a.disks {
		d.SetObserver(s)
	}
}

// Disk returns disk i.
func (a *Array) Disk(i int) *Disk { return a.disks[i] }

// Submit enqueues a read of the given block, at physical block phys, on
// disk i.
func (a *Array) Submit(i, block, phys int, prefetch bool) *Request {
	return a.disks[i].Submit(block, phys, prefetch)
}

// TotalServed sums request counts across disks.
func (a *Array) TotalServed() int64 {
	var n int64
	for _, d := range a.disks {
		n += d.served
	}
	return n
}

// ResponseStats merges response-time summaries across all disks (ms).
func (a *Array) ResponseStats() metrics.Summary {
	var s metrics.Summary
	for _, d := range a.disks {
		s.Merge(d.resp)
	}
	return s
}

// QueueDelayStats merges queue-delay summaries across all disks (ms).
func (a *Array) QueueDelayStats() metrics.Summary {
	var s metrics.Summary
	for _, d := range a.disks {
		s.Merge(d.qdelay)
	}
	return s
}

// MeanUtilization averages per-disk utilization over [0, end].
func (a *Array) MeanUtilization(end sim.Time) float64 {
	if len(a.disks) == 0 {
		return 0
	}
	total := 0.0
	for _, d := range a.disks {
		total += d.Utilization(end)
	}
	return total / float64(len(a.disks))
}
