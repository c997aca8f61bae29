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
	"math"

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
// by Release (DESIGN.md, "Disk request records"). Records are allocated
// in blocks, and a record keeps its whole block alive. A record is 160
// bytes: disk and block ids are int32, as the cache's block ids are,
// and NewArray refuses more disks than that holds.
type Request struct {
	Disk     int32
	Block    int32     // logical file block, for tracing
	Physical int32     // physical block on the disk
	Prefetch bool      // issued by the prefetcher rather than on demand
	holds    uint8     // holdDisk | holdConsumer while in use; 0 on the free list
	Enqueued sim.Time  // when the request joined the disk queue
	Started  sim.Time  // when the disk began servicing it
	Done     sim.Time  // when the transfer completed
	EstDone  sim.Time  // completion estimate available at submission
	Complete sim.Event // fires at Done
	Err      error     // non-nil if the transfer failed (fault injection)

	owner *Disk    // for the completion timer's Wake
	next  *Request // the next request in the disk's queue or on the free list
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

	// The waiting requests, oldest first, linked through Request.next:
	// FIFO serves the first, SSTF and SCAN unlink their pick wherever it
	// is.
	first, last *Request
	queued      int
	current     *Request

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

	arr *Array // owns the request free list
}

// ID returns the disk's index within its array.
func (d *Disk) ID() int { return d.id }

// Profile returns the disk's service-time model.
func (d *Disk) Profile() Profile { return d.profile }

// Policy returns the disk's queue scheduling policy.
func (d *Disk) Policy() SchedPolicy { return d.policy }

// QueueLength returns the number of requests waiting (excluding the one
// in service).
func (d *Disk) QueueLength() int { return d.queued }

// Submit enqueues a read of the given logical block, stored at physical
// block phys on this disk, and returns the request. The request's
// Complete event fires when the transfer is done; callers that need the
// data (demand fetches, unready hits) wait on it, while prefetchers do
// not.
func (d *Disk) Submit(block, phys int, prefetch bool) *Request {
	if phys < 0 || phys > math.MaxInt32 || block != int(int32(block)) {
		panic(fmt.Sprintf("disk: block %d at physical block %d: want int32 ids and a non-negative physical block", block, phys))
	}
	if d.dead {
		return d.submitDead(block, phys, prefetch)
	}
	now := d.k.Now()
	req := d.arr.get()
	*req = Request{
		Disk:     int32(d.id),
		Block:    int32(block),
		Physical: int32(phys),
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
	if o := d.k.Observer(); o != nil {
		o.Add(obs.CtrDiskRequests, 1)
		if prefetch {
			o.Add(obs.CtrDiskPrefetchRequests, 1)
		}
	}
	d.enqueue(req)
	if d.current == nil {
		d.dispatch()
	}
	return req
}

// enqueue appends req to the queue.
func (d *Disk) enqueue(req *Request) {
	if d.last == nil {
		d.first = req
	} else {
		d.last.next = req
	}
	d.last = req
	d.queued++
}

// dispatch picks, times, and (when an injector is attached) faults the
// next request per the scheduling policy, moving it into service and
// scheduling its completion. Kernel or process context; must only be
// called when idle.
func (d *Disk) dispatch() {
	if d.first == nil {
		d.current = nil
		return
	}
	now := d.k.Now()
	prev := d.pickNext(now)
	req := d.first
	if prev != nil {
		req = prev.next
		prev.next = req.next
	} else {
		d.first = req.next
	}
	if d.last == req {
		d.last = prev
	}
	req.next = nil
	d.queued--
	service := d.profile.ServiceTime(d.headPos, int(req.Physical))
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
		d.scanUp = int(req.Physical) >= d.headPos
	}
	d.headPos = int(req.Physical)
	req.Started = now
	req.Done = now.Add(service)
	d.busy += service
	d.current = req
	d.k.ScheduleWake(req.Done, req)
}

// complete finishes the request in service and reports its spans. A
// request a dead disk refuses or flushes completes elsewhere, with none.
func (d *Disk) complete(req *Request) {
	d.resp.Add(req.ResponseTime().Millis())
	d.qdelay.Add(req.QueueDelay().Millis())
	if o := d.k.Observer(); o != nil {
		arg := int64(0)
		if req.Prefetch {
			arg = 1
		}
		if req.Started > req.Enqueued {
			o.Span(obs.Span{
				Track: obs.DiskTrack(d.id), Kind: obs.SpanDiskQueue,
				Start: int64(req.Enqueued), End: int64(req.Started),
				Block: int(req.Block), Arg: arg,
			})
		}
		if req.Err != nil {
			arg |= 2
			o.Add(obs.CtrDiskFaultedRequests, 1)
		}
		o.Span(obs.Span{
			Track: obs.DiskTrack(d.id), Kind: obs.SpanDiskTransfer,
			Start: int64(req.Started), End: int64(req.Done),
			Block: int(req.Block), Arg: arg,
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

// pickNext chooses the waiting request to serve next at dispatch
// instant now. It returns the request queued just before it, nil when
// it is the oldest, so dispatch can unlink it. Ties go to the older
// request.
func (d *Disk) pickNext(now sim.Time) (prev *Request) {
	if d.policy == FIFO || d.headPos < 0 || d.first.next == nil {
		return nil
	}
	if now.Sub(d.first.Enqueued) > sim.Duration(starvationBound)*d.profile.Access {
		return nil
	}
	switch d.policy {
	case SSTF:
		var best *Request
		bestDist := -1
		for p, r := (*Request)(nil), d.first; r != nil; p, r = r, r.next {
			dist := int(r.Physical) - d.headPos
			if dist < 0 {
				dist = -dist
			}
			if bestDist < 0 || dist < bestDist {
				best, bestDist = p, dist
			}
		}
		return best
	case SCAN:
		// Nearest request in the sweep direction; reverse if none.
		pick := func(up bool) (*Request, bool) {
			var best *Request
			bestDist := -1
			for p, r := (*Request)(nil), d.first; r != nil; p, r = r, r.next {
				dist := int(r.Physical) - d.headPos
				if !up {
					dist = -dist
				}
				if dist < 0 {
					continue
				}
				if bestDist < 0 || dist < bestDist {
					best, bestDist = p, dist
				}
			}
			return best, bestDist >= 0
		}
		if p, ok := pick(d.scanUp); ok {
			return p
		}
		d.scanUp = !d.scanUp
		if p, ok := pick(d.scanUp); ok {
			return p
		}
	}
	return nil
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
// request records through one free list, which lives for one kernel
// run: it survives every drain of the queues inside the run and is
// dropped at the run's end.
type Array struct {
	disks []*Disk
	free  *Request  // released records, linked through next
	block []Request // the records of the newest block not yet handed out
	out   int       // records handed out and not yet back on free
}

// recordBlock is how many request records the array allocates at once.
// Blocks have a fixed size rather than growing, so a record kept past
// its run pins a bounded amount of memory.
const recordBlock = 64

// get hands out a request record: a released one when there is one,
// else the next of the newest block.
func (a *Array) get() *Request {
	a.out++
	if r := a.free; r != nil {
		a.free = r.next
		return r
	}
	if len(a.block) == 0 {
		a.block = make([]Request, recordBlock)
	}
	r := &a.block[0]
	a.block = a.block[1:]
	return r
}

// put takes back a record whose holds are both dropped.
func (a *Array) put(r *Request) {
	a.out--
	r.next = a.free
	a.free = r
}

// arrayTrim is the array as its kernel's run-end waiter
// (sim.Kernel.OnRunEnd); registering the converted pointer allocates
// nothing.
type arrayTrim Array

// Wake runs at the end of each kernel run. When no record is out, it
// drops the free list and the rest of the newest block, so an array
// kept after its run retains none of them. A record still out (a
// consumer that never releases) keeps the pool, as a record keeps its
// block anyway.
func (t *arrayTrim) Wake() {
	if t.out == 0 {
		t.free, t.block = nil, nil
	}
}

// NewArray creates n disks, numbered 0 to n-1, sharing a service model
// and queue scheduling policy. It panics on an empty array, one past
// int32 disk ids, an invalid service model or an unknown policy.
func NewArray(k *sim.Kernel, n int, profile Profile, policy SchedPolicy) *Array {
	if n <= 0 {
		panic("disk: array needs at least one disk")
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("disk: %d disks exceed int32 ids", n))
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
	k.OnRunEnd((*arrayTrim)(a))
	return a
}

// Len returns the number of disks.
func (a *Array) Len() int { return len(a.disks) }

// Pooled returns how many request records the array holds for reuse:
// the released ones and the rest of its newest block.
func (a *Array) Pooled() int {
	n := len(a.block)
	for r := a.free; r != nil; r = r.next {
		n++
	}
	return n
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
