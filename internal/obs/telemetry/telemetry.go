// Package telemetry is the cluster-scale aggregation layer over
// internal/obs: a deterministic, virtual-time streaming sink that makes
// 100k–1M node runs observable without retaining a span per activity.
//
// The full-fidelity obs.Recorder keeps one record per timed activity —
// the right lens at the paper's 20 processors, and billions of records
// at the scale unlocked by the compact engine. This package folds the
// same span stream into three fixed-cost views instead:
//
//  1. Windowed time series: spans and counter deltas are folded into
//     fixed-width virtual-time windows (Config.Window) of per-kind
//     duration sums and counts, log-bucketed latency histograms for the
//     wait/disk kinds, and per-window counter deltas from which rolling
//     rates (events/sec of virtual time, hit rate, prefetch issue rate)
//     are derived. Memory is O(virtual time / window), independent of
//     node count.
//  2. Node sampling: a deterministic K-of-N sample of processor tracks
//     (seed-hashed selection, so repeat runs sample identical nodes)
//     keeps full-fidelity spans in an embedded obs.Recorder — a 1M-node
//     run retains a Perfetto-exportable trace for ~64 representative
//     nodes while everything else aggregates.
//  3. Flight recorder: a fixed-size ring of the most recent spans and
//     counter deltas, dumped when the run dies (kernel deadlock panic,
//     audit violation, compact-node stall) so cluster-scale failures
//     arrive with their last-N-events context instead of a bare stack.
//
// Determinism: the sink observes only virtual-time spans and counters,
// in kernel emission order, and never feeds anything back into the
// simulation — a run with a telemetry sink installed produces Result
// bytes identical to a run with no sink at all (claim S5, machine
// checked by the experiment harness). All aggregation state is plain
// integers updated in emission order, so two runs of the same
// configuration produce byte-identical snapshots too.
//
// Like obs.Recorder, a Sink is single-run state: attach one per
// simulation, from the single simulation goroutine only.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"strings"

	"repro/internal/obs"
)

// HistBuckets is the number of log2 latency buckets per histogram:
// bucket i counts durations in [2^(i-1), 2^i) µs (bucket 0 is < 1 µs),
// with the last bucket absorbing everything longer. 30 buckets reach
// ~9 minutes of virtual time, far past any wait the simulator prices.
const HistBuckets = 30

// histKind indexes the span kinds that keep per-window latency
// histograms: the disk pipeline and the three wait classes — the
// decomposition the paper's figures hang on.
var histKinds = [...]obs.SpanKind{
	obs.SpanDiskQueue,
	obs.SpanDiskTransfer,
	obs.SpanDemandWait,
	obs.SpanHitWait,
	obs.SpanSyncWait,
}

// histIndex maps a span kind to its histogram slot, or -1.
var histIndex = func() [64]int8 {
	var m [64]int8
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

// Config parameterizes a telemetry Sink. The zero value is usable:
// 100 ms windows, no node sampling, a 256-span flight ring.
type Config struct {
	// Window is the aggregation window width in virtual µs.
	// Zero selects DefaultWindow (100 ms of sim time).
	Window int64

	// SampleK is the number of processor tracks recorded at full
	// fidelity; zero samples none. Nodes is the population size the
	// sample is drawn from; SampleSeed drives the hashed selection
	// (seed 0 is a valid, fixed seed). The same (seed, N, K) always
	// selects the same nodes.
	SampleK    int
	Nodes      int
	SampleSeed uint64

	// FlightSpans and FlightCtrs size the flight-recorder rings; zero
	// selects the defaults (256 spans, 128 counter deltas). Negative
	// disables the flight recorder.
	FlightSpans int
	FlightCtrs  int

	// FlightOut receives the human-readable crash dump when DumpFlight
	// fires; nil selects os.Stderr. FlightTrace, when non-nil, also
	// receives the ring as a rapidtrace v1 stream.
	FlightOut   io.Writer
	FlightTrace io.Writer
}

// DefaultWindow is the default aggregation window: 100 ms of virtual
// time, fine enough to localize the contention knee inside a run,
// coarse enough that a minutes-long 1M-node run stays a few thousand
// windows.
const DefaultWindow = 100_000

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.FlightSpans == 0 {
		c.FlightSpans = 256
	}
	if c.FlightCtrs == 0 {
		c.FlightCtrs = 128
	}
	return c
}

// Window is one fixed-width virtual-time aggregation window.
type Window struct {
	// Index is the window number; the window covers virtual time
	// [Index·width, (Index+1)·width).
	Index int64

	// Dur and Count are per-span-kind duration sums (µs) and span
	// counts, attributed to the window a span *ends* in (spans are
	// emitted at their end instant, so attribution is streaming and
	// deterministic; a span longer than the window still books its
	// whole duration here).
	Dur   [obs.NumSpanKinds]int64
	Count [obs.NumSpanKinds]int64

	// Ctrs are the counter increments attributed to this window.
	Ctrs obs.Counters

	// Hist are log-bucketed duration histograms for histKinds.
	Hist [len(histKinds)][HistBuckets]int64
}

// Sink is an obs.Sink that aggregates instead of retaining. Create
// with New; attach via core.Config.Obs. Not safe for concurrent use —
// one Sink per simulation run.
type Sink struct {
	cfg     Config
	windows []Window
	totals  obs.Counters

	sampled   *obs.Recorder // nil unless SampleK > 0
	sampleIDs []int
	sampleSet map[int]struct{}

	flight *Flight

	// now, when set (see SetClock), timestamps counter increments —
	// which carry no time of their own — with the kernel clock.
	// Without it the sink falls back to the latest span end seen,
	// which lags but stays deterministic.
	now      func() int64
	lastTime int64
}

// New returns an empty telemetry sink.
func New(cfg Config) *Sink {
	cfg = cfg.withDefaults()
	s := &Sink{cfg: cfg}
	if cfg.SampleK > 0 {
		s.sampled = obs.NewRecorder()
		s.sampleIDs = SampleNodes(cfg.SampleSeed, cfg.Nodes, cfg.SampleK)
		s.sampleSet = make(map[int]struct{}, len(s.sampleIDs))
		for _, id := range s.sampleIDs {
			s.sampleSet[id] = struct{}{}
		}
	}
	if cfg.FlightSpans > 0 {
		s.flight = newFlight(cfg.FlightSpans, cfg.FlightCtrs)
	}
	return s
}

// SetClock installs a virtual-time source used to timestamp counter
// increments. The core engine installs the kernel clock on any sink
// that implements this method; everything stays deterministic either
// way.
func (s *Sink) SetClock(now func() int64) { s.now = now }

// windowAt returns the window containing virtual instant t, growing
// the series as needed. Spans are emitted in non-decreasing end order,
// so growth is append-only in practice; earlier windows remain
// addressable for safety.
func (s *Sink) windowAt(t int64) *Window {
	idx := t / s.cfg.Window
	for int64(len(s.windows)) <= idx {
		s.windows = append(s.windows, Window{Index: int64(len(s.windows))})
	}
	return &s.windows[idx]
}

// Span implements obs.Sink.
func (s *Sink) Span(sp obs.Span) {
	if sp.End > s.lastTime {
		s.lastTime = sp.End
	}
	w := s.windowAt(sp.End)
	w.Dur[sp.Kind] += sp.Dur()
	w.Count[sp.Kind]++
	if hi := histIndex[sp.Kind]; hi >= 0 {
		w.Hist[hi][HistBucket(sp.Dur())]++
	}
	if s.sampled != nil && s.trackSampled(sp.Track) {
		s.sampled.Span(sp)
	}
	if s.flight != nil {
		s.flight.span(sp)
	}
}

// trackSampled reports whether a track belongs to the full-fidelity
// sample: the K selected processor tracks, plus the barrier track
// (there is only one — keeping it makes the sampled trace's sync spans
// interpretable).
func (s *Sink) trackSampled(t obs.Track) bool {
	if t.Kind == obs.TrackBarrier {
		return true
	}
	if t.Kind != obs.TrackProc {
		return false
	}
	_, ok := s.sampleSet[t.ID]
	return ok
}

// Add implements obs.Sink.
func (s *Sink) Add(c obs.Counter, delta int64) {
	s.totals[c] += delta
	t := s.lastTime
	if s.now != nil {
		t = s.now()
	}
	s.windowAt(t).Ctrs[c] += delta
	if s.flight != nil {
		s.flight.ctr(t, c, delta)
	}
}

// Totals returns the whole-run counter totals.
func (s *Sink) Totals() obs.Counters { return s.totals }

// Windows returns the aggregated series. The returned slice is the
// sink's own storage; do not mutate while the run is live.
func (s *Sink) Windows() []Window { return s.windows }

// Sampled returns the full-fidelity recorder of the sampled tracks, or
// nil when sampling is off.
func (s *Sink) Sampled() *obs.Recorder { return s.sampled }

// SampleIDs returns the sampled node IDs in ascending order (nil when
// sampling is off).
func (s *Sink) SampleIDs() []int { return s.sampleIDs }

// Flight returns the flight recorder, or nil when disabled.
func (s *Sink) Flight() *Flight { return s.flight }

// DumpFlight writes the flight-recorder crash report for the given
// cause to Config.FlightOut (os.Stderr by default) and, when
// Config.FlightTrace is set, the ring as rapidtrace v1. The core
// engine calls this on any sink that implements it when a run panics
// — kernel deadlock, audit violation, or compact-node stall — then
// re-raises the panic. No-op when the flight recorder is disabled.
func (s *Sink) DumpFlight(cause any) {
	if s.flight == nil {
		return
	}
	out := s.cfg.FlightOut
	if out == nil {
		out = os.Stderr
	}
	s.flight.Dump(out, cause)
	if s.cfg.FlightTrace != nil {
		if err := s.flight.WriteTrace(s.cfg.FlightTrace, s.totals); err != nil {
			fmt.Fprintf(out, "telemetry: flight trace write failed: %v\n", err)
		}
	}
}

// Snapshot is the exportable form of the aggregation: run metadata
// plus the window series. It marshals directly to JSON and renders to
// CSV with WriteCSV.
type Snapshot struct {
	WindowMicros int64        `json:"windowMicros"`
	SampleNodes  []int        `json:"sampleNodes,omitempty"`
	Totals       obs.Counters `json:"totals"`
	Windows      []Window     `json:"windows"`
}

// Snapshot captures the sink's current state. The windows are shared,
// not copied — snapshot after the run, not during.
func (s *Sink) Snapshot() *Snapshot {
	return &Snapshot{
		WindowMicros: s.cfg.Window,
		SampleNodes:  s.sampleIDs,
		Totals:       s.totals,
		Windows:      s.windows,
	}
}

// WriteJSON writes the snapshot as indented JSON.
func (sn *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(sn)
}

// ReadJSON parses a snapshot written by WriteJSON.
func ReadJSON(r io.Reader) (*Snapshot, error) {
	var sn Snapshot
	if err := json.NewDecoder(r).Decode(&sn); err != nil {
		return nil, fmt.Errorf("telemetry: bad snapshot JSON: %w", err)
	}
	if sn.WindowMicros <= 0 {
		return nil, fmt.Errorf("telemetry: snapshot has non-positive window width %d", sn.WindowMicros)
	}
	return &sn, nil
}

// Quantile returns the q-quantile (0..1) of the window's histogram for
// histKinds[hi], interpolated as the lower bound of the bucket the
// quantile falls in — a deterministic, conservative estimate.
func (w *Window) Quantile(hi int, q float64) int64 {
	var total int64
	for _, n := range w.Hist[hi] {
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
	for b, n := range w.Hist[hi] {
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
	hits := w.Ctrs[obs.CtrCacheReadyHits] + w.Ctrs[obs.CtrCacheUnreadyHits]
	total := hits + w.Ctrs[obs.CtrCacheMisses]
	if total == 0 {
		return -1
	}
	return float64(hits) / float64(total)
}

// Rate converts a per-window count into a per-virtual-second rate.
func (sn *Snapshot) Rate(count int64) float64 {
	return float64(count) * 1e6 / float64(sn.WindowMicros)
}

// csvHeader is the stable column set of the CSV export. Wait/queue
// quantiles are in µs; rates are per second of *virtual* time.
var csvHeader = []string{
	"window", "start_us",
	"kernel_events", "events_per_sec",
	"disk_requests", "prefetch_requests",
	"ready_hits", "unready_hits", "misses", "hit_rate",
	"prefetch_issued", "prefetch_rate_per_sec", "prefetch_throttled",
	"compute_us", "fs_work_us", "demand_wait_us", "hit_wait_us",
	"sync_wait_us", "disk_queue_us", "disk_transfer_us",
	"disk_queue_p50_us", "disk_queue_p95_us",
	"demand_wait_p50_us", "demand_wait_p95_us",
	// Fault columns (appended, keeping the pre-chaos layout stable):
	// per-window injection and recovery activity, all zero on
	// fault-free runs.
	"fault_draws", "faults_injected", "disk_faulted",
	"read_retries", "failed_fills",
	"node_stalls", "quorum_releases", "takeover_reads",
}

// WriteCSV renders the window series as CSV, one row per window.
func (sn *Snapshot) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(csvHeader, ",")); err != nil {
		return err
	}
	for i := range sn.Windows {
		win := &sn.Windows[i]
		hitRate := win.HitRate()
		hitCell := ""
		if hitRate >= 0 {
			hitCell = fmt.Sprintf("%.4f", hitRate)
		}
		row := []string{
			fmt.Sprintf("%d", win.Index),
			fmt.Sprintf("%d", win.Index*sn.WindowMicros),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrKernelEvents]),
			fmt.Sprintf("%.0f", sn.Rate(win.Ctrs[obs.CtrKernelEvents])),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrDiskRequests]),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrDiskPrefetchRequests]),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrCacheReadyHits]),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrCacheUnreadyHits]),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrCacheMisses]),
			hitCell,
			fmt.Sprintf("%d", win.Ctrs[obs.CtrCachePrefetchesIssued]),
			fmt.Sprintf("%.0f", sn.Rate(win.Ctrs[obs.CtrCachePrefetchesIssued])),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrPrefetchThrottled]),
			fmt.Sprintf("%d", win.Dur[obs.SpanCompute]),
			fmt.Sprintf("%d", win.Dur[obs.SpanFSWork]),
			fmt.Sprintf("%d", win.Dur[obs.SpanDemandWait]),
			fmt.Sprintf("%d", win.Dur[obs.SpanHitWait]),
			fmt.Sprintf("%d", win.Dur[obs.SpanSyncWait]),
			fmt.Sprintf("%d", win.Dur[obs.SpanDiskQueue]),
			fmt.Sprintf("%d", win.Dur[obs.SpanDiskTransfer]),
			fmt.Sprintf("%d", win.Quantile(0, 0.50)),
			fmt.Sprintf("%d", win.Quantile(0, 0.95)),
			fmt.Sprintf("%d", win.Quantile(2, 0.50)),
			fmt.Sprintf("%d", win.Quantile(2, 0.95)),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrFaultDraws]),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrFaultsInjected]),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrDiskFaultedRequests]),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrReadRetries]),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrCacheFailedFills]),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrNodeStalls]),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrQuorumReleases]),
			fmt.Sprintf("%d", win.Ctrs[obs.CtrTakeoverReads]),
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
