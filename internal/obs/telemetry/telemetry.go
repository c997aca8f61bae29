// Package telemetry is the cluster-scale aggregation layer over
// internal/obs: a deterministic, virtual-time streaming sink that makes
// 100k–1M node runs observable without retaining a span per activity,
// by folding the span stream into three fixed-cost views:
//
//  1. Windowed time series: spans and counter deltas fold into
//     fixed-width virtual-time windows (Config.Window, obs.Window) of
//     per-kind duration sums and counts, log-bucketed latency
//     histograms of the wait/disk kinds, and counter deltas, from which
//     rolling rates (events/sec of virtual time, hit rate, prefetch
//     issue rate) derive. Memory is O(virtual time / window),
//     independent of node count.
//  2. Node sampling: a deterministic, seed-hashed K-of-N sample of
//     processor tracks keeps full-fidelity spans — a 1M-node run
//     retains a span trace for ~64 representative nodes.
//  3. Flight recorder: rings of the most recent spans and counter
//     deltas, dumped when the run dies (kernel deadlock panic, audit
//     violation, compact-node stall), so a cluster-scale failure
//     arrives with its last-N-events context instead of a bare stack.
//
// The windows, the sampled spans and the counter totals live in one
// obs.Recorder (Sink.Recorder), so a telemetry run is one trace-event
// file that cmd/trace reads like any other trace.
//
// The sink observes only virtual-time spans and counters, in kernel
// emission order, and never feeds anything back into the simulation: a
// run with it installed produces Result bytes identical to a run with
// no sink (claim S5), and two runs of one configuration produce
// byte-identical files. Like obs.Recorder, a Sink is single-run state:
// attach one per simulation.
package telemetry

import (
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

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

	// FlightOut receives the human-readable crash dump when DumpFlight
	// fires; nil selects os.Stderr. FlightTrace, when non-nil, also
	// receives the ring as a span trace (obs.Recorder.WriteTo).
	FlightOut   io.Writer
	FlightTrace io.Writer
}

// DefaultWindow is the default aggregation window: 100 ms of virtual
// time, fine enough to localize the contention knee inside a run,
// coarse enough that a minutes-long 1M-node run stays a few thousand
// windows.
const DefaultWindow = 100_000

// The flight recorder's rings hold the last FlightSpans spans and the
// last FlightCtrs counter increments.
const (
	FlightSpans = 256
	FlightCtrs  = 128
)

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	return c
}

// Sink is an obs.Sink that aggregates instead of retaining. Create
// with New; attach via core.Config.Obs. Not safe for concurrent use —
// one Sink per simulation run.
type Sink struct {
	cfg Config
	rec *obs.Recorder // the windows, the sampled spans and the totals

	sampleIDs []int
	sampleSet map[int]struct{} // nil unless SampleK > 0

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
	s := &Sink{cfg: cfg, rec: &obs.Recorder{Width: cfg.Window}, flight: newFlight()}
	if cfg.SampleK > 0 {
		s.sampleIDs = SampleNodes(cfg.SampleSeed, cfg.Nodes, cfg.SampleK)
		s.sampleSet = make(map[int]struct{}, len(s.sampleIDs))
		for _, id := range s.sampleIDs {
			s.sampleSet[id] = struct{}{}
		}
	}
	return s
}

// SetClock installs a virtual-time source used to timestamp counter
// increments. sim.Kernel.SetObserver installs the kernel clock on any
// sink that implements this method; everything stays deterministic
// either way.
func (s *Sink) SetClock(now func() int64) { s.now = now }

// windowAt returns the window containing virtual instant t, growing
// the series as needed. Spans are emitted in non-decreasing end order,
// so growth is append-only in practice; earlier windows remain
// addressable for safety.
func (s *Sink) windowAt(t int64) *obs.Window {
	idx := t / s.cfg.Window
	for int64(len(s.rec.Windows)) <= idx {
		s.rec.Windows = append(s.rec.Windows, obs.Window{})
	}
	return &s.rec.Windows[idx]
}

// Span implements obs.Sink.
func (s *Sink) Span(sp obs.Span) {
	if sp.End > s.lastTime {
		s.lastTime = sp.End
	}
	s.windowAt(sp.End).AddSpan(sp)
	if s.sampleSet != nil && s.trackSampled(sp.Track) {
		s.rec.Span(sp)
	}
	s.flight.span(sp)
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
	s.rec.Counters[c] += delta
	t := s.lastTime
	if s.now != nil {
		t = s.now()
	}
	s.windowAt(t).Ctrs[c] += delta
	s.flight.ctr(t, c, delta)
}

// Recorder returns the run's one recorder: the window series, the
// sampled nodes' spans and the whole-run counter totals. It is the
// sink's own storage; write it out after the run, not during.
func (s *Sink) Recorder() *obs.Recorder { return s.rec }

// SampleIDs returns the sampled node IDs in ascending order (nil when
// sampling is off).
func (s *Sink) SampleIDs() []int { return s.sampleIDs }

// Flight returns the flight recorder.
func (s *Sink) Flight() *Flight { return s.flight }

// DumpFlight writes the flight-recorder crash report for the given
// cause to Config.FlightOut (os.Stderr by default) and, when
// Config.FlightTrace is set, the ring as a span trace. The core
// engine calls this on any sink that implements it when a run panics
// — kernel deadlock, audit violation, or compact-node stall — then
// re-raises the panic.
func (s *Sink) DumpFlight(cause any) {
	out := s.cfg.FlightOut
	if out == nil {
		out = os.Stderr
	}
	s.flight.Dump(out, cause)
	if s.cfg.FlightTrace != nil {
		if err := s.flight.WriteTrace(s.cfg.FlightTrace, s.rec.Counters); err != nil {
			fmt.Fprintf(out, "telemetry: flight trace write failed: %v\n", err)
		}
	}
}
