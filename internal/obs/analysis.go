package obs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// Fault classes of a failed fill, carried in the low two bits of a
// SpanBackoff's Arg. They mirror the disk layer's typed errors.
const (
	FaultTransient = 1 + iota
	FaultTimeout
	FaultDead
)

// Analysis is the off-line summary of a recorded access pattern, as the
// paper's testbed analyzes its traces (§IV-C): how sequential the
// merged request stream is, how long each processor's sequential runs
// are, and how the accesses break down by outcome.
type Analysis struct {
	// Outcome counts.
	Reads       int
	ReadyHits   int
	UnreadyHits int
	DemandFetch int
	Prefetches  int
	// Retries counts read backoffs after failed fills (fault injection
	// only), and RetriesByClass breaks them down by fault class,
	// indexed by FaultTransient, FaultTimeout and FaultDead.
	Retries        int
	RetriesByClass [4]int
	// GlobalSequentiality is the fraction of successive read requests
	// (merged over all processors, in start order) whose block is
	// exactly one past the previous request's block: the paper's
	// "roughly sequential from a global perspective".
	GlobalSequentiality float64
	// LocalRunLength summarizes, per processor, the lengths of maximal
	// strictly consecutive block runs (local sequentiality).
	LocalRunLength metrics.Summary
	// InterRequest summarizes times between successive read requests,
	// ms.
	InterRequest metrics.Summary
	// PerNodeReads counts read requests by processor.
	PerNodeReads map[int]int
}

// Analyze computes the access analysis of a recorded run. The request
// stream is the SpanRead spans sorted by their start ordinal; the hit
// and miss counts are the cache counters; prefetches are the prefetch
// actions that issued an I/O; retries are the backoff spans.
func Analyze(r *Recorder) *Analysis {
	a := &Analysis{
		ReadyHits:    int(r.Counters[CtrCacheReadyHits]),
		UnreadyHits:  int(r.Counters[CtrCacheUnreadyHits]),
		DemandFetch:  int(r.Counters[CtrCacheMisses]),
		PerNodeReads: map[int]int{},
	}
	var reads []Span
	for _, s := range r.Spans {
		switch s.Kind {
		case SpanRead:
			reads = append(reads, s)
		case SpanPrefetchAction:
			if s.Arg == 1 {
				a.Prefetches++
			}
		case SpanBackoff:
			a.Retries++
			a.RetriesByClass[s.Arg&3]++
		}
	}
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].Arg < reads[j].Arg })
	a.Reads = len(reads)
	seqPairs := 0
	runLen := map[int]int{}
	lastBlock := map[int]int{}
	for i, s := range reads {
		node := s.Track.ID
		a.PerNodeReads[node]++
		if i > 0 {
			if s.Block == reads[i-1].Block+1 {
				seqPairs++
			}
			a.InterRequest.Add(float64(s.Start-reads[i-1].Start) / 1000)
		}
		if last, ok := lastBlock[node]; ok && s.Block == last+1 {
			runLen[node]++
		} else {
			if n := runLen[node]; n > 0 {
				a.LocalRunLength.Add(float64(n))
			}
			runLen[node] = 1
		}
		lastBlock[node] = s.Block
	}
	nodes := make([]int, 0, len(runLen))
	for node := range runLen {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		a.LocalRunLength.Add(float64(runLen[node]))
	}
	if len(reads) > 1 {
		a.GlobalSequentiality = float64(seqPairs) / float64(len(reads)-1)
	}
	return a
}

// String renders the analysis.
func (a *Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reads=%d demand=%d prefetched=%d ready-hits=%d unready-hits=%d\n",
		a.Reads, a.DemandFetch, a.Prefetches, a.ReadyHits, a.UnreadyHits)
	fmt.Fprintf(&b, "global sequentiality %.3f, mean local run %.1f blocks, mean inter-request %.2f ms\n",
		a.GlobalSequentiality, a.LocalRunLength.Mean(), a.InterRequest.Mean())
	if a.Retries > 0 {
		fmt.Fprintf(&b, "read retries %d (transient=%d timeout=%d dead=%d)\n",
			a.Retries, a.RetriesByClass[FaultTransient],
			a.RetriesByClass[FaultTimeout], a.RetriesByClass[FaultDead])
	}
	return b.String()
}
