// Package obs is the virtual-time observability layer of the simulator:
// typed spans and monotonic counters describing where virtual time went
// inside a run, emitted by every subsystem through one zero-allocation
// hook interface.
//
// The paper justifies every figure by decomposing processor time —
// prefetching wins exactly when disk service, cache waits, and barrier
// skew overlap with compute — and its testbed records full access
// traces for off-line analysis (§IV-C). This package gives the
// reproduction the same lens: a Sink installed on a run's kernel gets a
// Span for every timed activity (disk queueing and transfer, cache
// fills and waits, prefetch actions, barrier generations, fault
// backoffs, per-processor compute) and counter increments for discrete
// occurrences (kernel events dispatched, disk requests, cache hits).
//
// Design constraints, in order:
//
//  1. Deterministic: spans carry only virtual time and are emitted in
//     kernel execution order, so two runs of the same configuration
//     produce byte-identical traces.
//  2. Free when off: every emission site is guarded by a single nil
//     check on the subsystem's sink field; with no sink installed the
//     simulator's outputs are byte-identical to an uninstrumented
//     build and the hot paths pay one predictable branch.
//  3. Zero-allocation when on: Span is a small value struct and
//     Counter a scalar, so reporting neither allocates nor escapes;
//     the Recorder's append is the only allocation, amortized.
//
// The package deliberately imports nothing from the simulator (times
// are plain int64 microseconds, the kernel's unit), so every layer —
// including the sim kernel itself — can depend on it without cycles.
package obs

import "fmt"

// SpanKind is the type of a timed activity.
type SpanKind uint8

// The span taxonomy. Proc-track kinds (SpanCompute through
// SpanPrefetchAction) are emitted so that spans on one processor's
// track always nest or are disjoint — a read contains its file system
// work, its fetch wait, and any retry backoff; prefetch actions run
// strictly inside the wait that hosts them. Async kinds (SpanDiskQueue,
// SpanCacheFill) may overlap others on their track and are written as
// async begin/end pairs rather than stack slices.
const (
	// SpanCompute is the synthetic application's computation between
	// block reads.
	SpanCompute SpanKind = iota
	// SpanRead covers one whole block read, from the claim of the
	// block to its completion. Its children decompose it; its
	// exclusive time is list-walking overhead not separately priced.
	// Arg carries the read's start ordinal: the run numbers its reads
	// in the order they start, so sorting by Arg recovers the merged
	// request stream that the end-ordered trace does not keep.
	SpanRead
	// SpanFSWork is one priced file system operation under the NUMA
	// cost model. Arg carries the contention level (other processors
	// concurrently inside the file system).
	SpanFSWork
	// SpanDemandWait is the wait for the processor's own demand fetch.
	// Arg carries the logical wait in µs (call to event firing); the
	// span itself extends to the actual resume, so it also contains any
	// prefetch overrun.
	SpanDemandWait
	// SpanHitWait is the wait for a block already being fetched by
	// another processor (an unready hit). Arg as SpanDemandWait.
	SpanHitWait
	// SpanSyncWait is one barrier passage, arrival to resume. Arg
	// carries the logical wait in µs (arrival to release).
	SpanSyncWait
	// SpanFrameWait is a demand fetch stalled waiting for a cache frame
	// to be freed.
	SpanFrameWait
	// SpanBackoff is the virtual-time retry backoff after a failed
	// fill. Arg carries the attempt number shifted left by two, over
	// the fault class of the failed fill (FaultTransient, FaultTimeout
	// or FaultDead; 0 if unclassified) in the low two bits.
	SpanBackoff
	// SpanPrefetchAction is one idle-time prefetch action, begin to
	// completion, including its memory-contention cost. Arg is 1 when
	// the action issued an I/O, 0 for an unsuccessful attempt.
	SpanPrefetchAction
	// SpanDiskQueue is a request's time in the disk queue, enqueue to
	// service start. Queue spans overlap freely (async). Arg is 1 for
	// prefetch requests.
	SpanDiskQueue
	// SpanDiskTransfer is a request's service time, start to
	// completion. Transfers on one disk never overlap. Arg is 1 for
	// prefetch requests, plus 2 if the transfer completed with an
	// error (fault injection).
	SpanDiskTransfer
	// SpanCacheFill is a buffer fill in flight, fetch begin to
	// ready/failed, on the home node's track (async — the processor
	// keeps executing during prefetch fills). Arg bit 0 = prefetch
	// fill, bit 1 = fill failed.
	SpanCacheFill
	// SpanBarrierGen is one barrier generation, first arrival to
	// release, on the barrier track: its width is the paper's barrier
	// skew. Arg carries the number of parties released.
	SpanBarrierGen

	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"compute", "read", "fs-work", "demand-wait", "hit-wait", "sync-wait",
	"frame-wait", "backoff", "prefetch-action", "disk-queue",
	"disk-transfer", "cache-fill", "barrier-gen",
}

// String names the span kind with a stable identifier used by the
// trace serialization and the trace CLI's -span filter.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("SpanKind(%d)", int(k))
}

// ParseSpanKind converts a span kind name back to its SpanKind.
func ParseSpanKind(s string) (SpanKind, error) {
	for k, name := range spanKindNames {
		if name == s {
			return SpanKind(k), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown span kind %q", s)
}

// Async reports whether spans of this kind may overlap others on their
// track. Sync kinds obey stack discipline per track (nest or disjoint)
// and are written as complete events; async kinds are written as async
// begin/end pairs.
func (k SpanKind) Async() bool {
	return k == SpanDiskQueue || k == SpanCacheFill
}

// TrackKind is the family of a timeline track.
type TrackKind uint8

// Track families: one track per processor, one per disk, and one for
// the barrier.
const (
	TrackProc TrackKind = iota
	TrackDisk
	TrackBarrier

	numTrackKinds
)

var trackKindNames = [numTrackKinds]string{"proc", "disk", "barrier"}

// String names the track kind.
func (k TrackKind) String() string {
	if int(k) < len(trackKindNames) {
		return trackKindNames[k]
	}
	return fmt.Sprintf("TrackKind(%d)", int(k))
}

// Track identifies one timeline: a processor, a disk, or the barrier.
type Track struct {
	Kind TrackKind
	ID   int
}

// String renders the track as e.g. "proc3" or "disk0".
func (t Track) String() string {
	if t.Kind == TrackBarrier {
		return "barrier"
	}
	return fmt.Sprintf("%s%d", t.Kind, t.ID)
}

// ProcTrack and DiskTrack build the common tracks.
func ProcTrack(node int) Track { return Track{TrackProc, node} }

// DiskTrack returns the track of disk id.
func DiskTrack(id int) Track { return Track{TrackDisk, id} }

// BarrierTrack returns the barrier's track.
func BarrierTrack() Track { return Track{TrackBarrier, 0} }

// Span is one completed timed activity in virtual time. Spans are
// reported at their end instant, so a trace is ordered by End, not
// Start. All times are virtual microseconds since the start of the
// run (the kernel's unit). Block is the logical file block involved,
// or -1; Arg is a kind-specific detail documented on each SpanKind.
type Span struct {
	Track Track
	Kind  SpanKind
	Start int64
	End   int64
	Block int
	Arg   int64
}

// Dur returns the span's duration in µs.
func (s Span) Dur() int64 { return s.End - s.Start }

// Counter identifies one monotonic counter.
type Counter uint8

// The counter set. Kernel counters measure the simulation substrate;
// the rest measure the modelled file system.
const (
	CtrKernelEvents         Counter = iota // events dispatched by the kernel
	CtrKernelWakes                         // continuation (Waiter) dispatches
	CtrKernelSteps                         // process resumption dispatches
	CtrKernelSpawns                        // processes spawned
	CtrDiskRequests                        // requests accepted by the disks
	CtrDiskPrefetchRequests                // subset issued by the prefetcher
	CtrDiskFaultedRequests                 // requests completed with an error
	CtrCacheReadyHits
	CtrCacheUnreadyHits
	CtrCacheMisses
	CtrCachePrefetchesIssued
	CtrCachePrefetchesConsumed
	CtrCacheFailedFills
	CtrPrefetchWaits     // idle waits hosted by a prefetch scheduler
	CtrPrefetchActions   // prefetch actions begun
	CtrBarrierGens       // barrier generations released
	CtrFaultDraws        // fault decisions drawn by the injector
	CtrFaultsInjected    // draws that injected an effect
	CtrReadRetries       // demand reads retried after a failed fill
	CtrNodeStalls        // transient processor stalls injected
	CtrQuorumReleases    // barrier generations released by the watchdog
	CtrPrefetchThrottled // prefetch idle waits throttled by backpressure
	CtrTakeoverReads     // reads survivors performed for a dead processor

	numCounters
)

// NumCounters is the size of the counter set, for sinks that keep a
// fixed array.
const NumCounters = int(numCounters)

// NumSpanKinds is the size of the span-kind set, for sinks that keep
// per-kind aggregates in a fixed array.
const NumSpanKinds = int(numSpanKinds)

var counterNames = [numCounters]string{
	"kernel-events", "kernel-wakes", "kernel-steps", "kernel-spawns",
	"disk-requests", "disk-prefetch-requests", "disk-faulted-requests",
	"cache-ready-hits", "cache-unready-hits", "cache-misses",
	"cache-prefetches-issued", "cache-prefetches-consumed",
	"cache-failed-fills", "prefetch-waits", "prefetch-actions",
	"barrier-gens", "fault-draws", "faults-injected", "read-retries",
	"node-stalls", "quorum-releases", "prefetch-throttled",
	"takeover-reads",
}

// String names the counter with a stable identifier used by the trace
// serialization.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", int(c))
}

// ParseCounter converts a counter name back to its Counter.
func ParseCounter(s string) (Counter, error) {
	for c, name := range counterNames {
		if name == s {
			return Counter(c), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown counter %q", s)
}

// Counters is a fixed-size counter bank. The zero value is ready to
// use.
type Counters [numCounters]int64

// Get returns counter c.
func (cs *Counters) Get(c Counter) int64 { return cs[c] }

// Sink receives observability data. Implementations must not retain
// the Span beyond the call (it is reused by value) and must tolerate
// being called from the single simulation goroutine only — the kernel
// serializes all emission, so a Sink needs no locking unless it is
// shared across concurrently executing simulations (see CounterSink).
//
// Every subsystem holds its sink in a nillable field and guards each
// emission with one nil check, so an uninstalled sink costs a single
// predictable branch on the hot paths.
type Sink interface {
	// Span reports one completed timed activity.
	Span(s Span)
	// Add increments counter c by delta.
	Add(c Counter, delta int64)
}
