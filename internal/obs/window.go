package obs

import (
	"fmt"
	"math/bits"
)

// HistBuckets is the number of log2 latency buckets per histogram:
// bucket i counts durations in [2^(i-1), 2^i) µs (bucket 0 is < 1 µs),
// with the last bucket absorbing everything longer. 30 buckets reach
// ~9 minutes of virtual time, far past any wait the simulator prices.
const HistBuckets = 30

// histKinds are the span kinds whose windows keep a latency histogram:
// the disk pipeline and the three wait classes, the decomposition the
// paper's figures hang on.
var histKinds = [...]SpanKind{
	SpanDiskQueue,
	SpanDiskTransfer,
	SpanDemandWait,
	SpanHitWait,
	SpanSyncWait,
}

// histIndex maps a span kind to its histogram slot, or -1.
var histIndex = func() (m [numSpanKinds]int8) {
	for i := range m {
		m[i] = -1
	}
	for i, k := range histKinds {
		m[k] = int8(i)
	}
	return m
}()

// HistBucket returns the log2 bucket of a duration in µs.
func HistBucket(us int64) int {
	if us <= 0 {
		return 0
	}
	b := bits.Len64(uint64(us))
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// BucketLow returns the inclusive lower bound (µs) of histogram bucket b.
func BucketLow(b int) int64 {
	if b <= 0 {
		return 0
	}
	return int64(1) << (b - 1)
}

// Window is one fixed-width virtual-time window of a Recorder's
// windowed series: Windows[i] covers virtual time [i·Width,
// (i+1)·Width).
type Window struct {
	// Dur and Count are per-span-kind duration sums (µs) and span
	// counts, attributed to the window a span *ends* in (spans are
	// emitted at their end instant, so attribution is streaming and
	// deterministic; a span longer than the window still books its
	// whole duration here).
	Dur   [NumSpanKinds]int64
	Count [NumSpanKinds]int64

	// Ctrs are the counter increments attributed to this window.
	Ctrs Counters

	// Hist are log-bucketed duration histograms of the kinds that keep
	// one (see Quantile).
	Hist [len(histKinds)][HistBuckets]int64
}

// AddSpan books a span into the window: its whole duration and one
// count under its kind, and one latency sample if the kind keeps a
// histogram.
func (w *Window) AddSpan(s Span) {
	d := s.Dur()
	w.Dur[s.Kind] += d
	w.Count[s.Kind]++
	if h := histIndex[s.Kind]; h >= 0 {
		w.Hist[h][HistBucket(d)]++
	}
}

// Quantile returns the q-quantile (0..1) of the window's latency
// histogram of span kind k, as the lower bound of the bucket the
// quantile falls in: a deterministic, conservative estimate, 0 when the
// window holds no span of the kind. Only disk-queue, disk-transfer,
// demand-wait, hit-wait and sync-wait keep a histogram; Quantile
// panics for any other kind.
func (w *Window) Quantile(k SpanKind, q float64) int64 {
	h := histIndex[k]
	if h < 0 {
		panic(fmt.Sprintf("obs: span kind %s keeps no latency histogram", k))
	}
	var total int64
	for _, n := range w.Hist[h] {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for b, n := range w.Hist[h] {
		seen += n
		if seen > rank {
			return BucketLow(b)
		}
	}
	return BucketLow(HistBuckets - 1)
}

// HitRate returns the window's cache hit rate (ready+unready hits over
// all lookups), or -1 when the window saw no lookups.
func (w *Window) HitRate() float64 {
	hits := w.Ctrs[CtrCacheReadyHits] + w.Ctrs[CtrCacheUnreadyHits]
	total := hits + w.Ctrs[CtrCacheMisses]
	if total == 0 {
		return -1
	}
	return float64(hits) / float64(total)
}

// A window series is one number of a Window: a counter's delta, a span
// kind's duration sum or count, or one histogram bucket. The trace file
// holds each non-zero one as a counter event named by its series.
// seriesNames names them in their canonical order: counter deltas
// ("kernel-events"), duration sums ("compute-us"), span counts
// ("compute-count"), then histogram buckets ("disk-queue-bucket-7").
// seriesIndex inverts it.
var seriesNames, seriesIndex = func() (names []string, index map[string]int) {
	names = append(names, counterNames[:]...)
	for _, suffix := range []string{"-us", "-count"} {
		for _, k := range spanKindNames {
			names = append(names, k+suffix)
		}
	}
	for _, k := range histKinds {
		for b := range HistBuckets {
			names = append(names, fmt.Sprintf("%s-bucket-%d", k, b))
		}
	}
	index = make(map[string]int, len(names))
	for i, name := range names {
		index[name] = i
	}
	return names, index
}()

// series returns series i of w.
func (w *Window) series(i int) *int64 {
	switch {
	case i < NumCounters:
		return &w.Ctrs[i]
	case i < NumCounters+NumSpanKinds:
		return &w.Dur[i-NumCounters]
	case i < NumCounters+2*NumSpanKinds:
		return &w.Count[i-NumCounters-NumSpanKinds]
	}
	i -= NumCounters + 2*NumSpanKinds
	return &w.Hist[i/HistBuckets][i%HistBuckets]
}
