package telemetry

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// Flight is the crash flight recorder: fixed-size rings of the most
// recent spans and counter increments, written continuously and read
// only when the run dies. A cluster-scale failure (kernel deadlock,
// audit violation, compact-node stall) then arrives with its
// last-N-events context — which tracks were active, what they were
// doing, and when each was last heard from — instead of a bare stack
// trace.
type Flight struct {
	spans ring[obs.Span]
	ctrs  ring[ctrDelta]

	// lastSeen tracks the most recent span end per track, for the
	// "who went quiet" digest in the dump. Bounded by the number of
	// distinct tracks that ever appear in the ring's lifetime.
	lastSeen map[obs.Track]lastActivity
}

type ctrDelta struct {
	At    int64
	Ctr   obs.Counter
	Delta int64
}

type lastActivity struct {
	kind obs.SpanKind
	end  int64
}

func newFlight() *Flight {
	return &Flight{
		spans:    ring[obs.Span]{buf: make([]obs.Span, FlightSpans)},
		ctrs:     ring[ctrDelta]{buf: make([]ctrDelta, FlightCtrs)},
		lastSeen: make(map[obs.Track]lastActivity),
	}
}

func (f *Flight) span(sp obs.Span) {
	f.spans.push(sp)
	if la, ok := f.lastSeen[sp.Track]; !ok || sp.End >= la.end {
		f.lastSeen[sp.Track] = lastActivity{sp.Kind, sp.End}
	}
}

func (f *Flight) ctr(at int64, c obs.Counter, delta int64) { f.ctrs.push(ctrDelta{at, c, delta}) }

// Spans returns the ring's contents oldest-first.
func (f *Flight) Spans() []obs.Span { return f.spans.oldestFirst() }

// ring keeps the last len(buf) values pushed.
type ring[T any] struct {
	buf []T
	pos int // next write slot
	n   int // values pushed in total
}

func (r *ring[T]) push(v T) {
	r.buf[r.pos] = v
	r.pos = (r.pos + 1) % len(r.buf)
	r.n++
}

// oldestFirst returns the values kept, oldest first.
func (r *ring[T]) oldestFirst() []T {
	n := min(r.n, len(r.buf))
	out := make([]T, 0, n)
	for i := r.pos - n + len(r.buf); len(out) < n; i++ {
		out = append(out, r.buf[i%len(r.buf)])
	}
	return out
}

// Dump writes the human-readable crash report: the cause, a per-track
// last-activity digest sorted stalest-first (the stuck track reads
// first), and the ring contents. Safe to call with a partially filled
// or empty ring.
func (f *Flight) Dump(w io.Writer, cause any) {
	fmt.Fprintf(w, "=== telemetry flight recorder ===\n")
	fmt.Fprintf(w, "cause: %v\n", cause)

	type trackLine struct {
		track obs.Track
		la    lastActivity
	}
	lines := make([]trackLine, 0, len(f.lastSeen))
	for tr, la := range f.lastSeen {
		lines = append(lines, trackLine{tr, la})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].la.end != lines[j].la.end {
			return lines[i].la.end < lines[j].la.end
		}
		ti, tj := lines[i].track, lines[j].track
		if ti.Kind != tj.Kind {
			return ti.Kind < tj.Kind
		}
		return ti.ID < tj.ID
	})
	fmt.Fprintf(w, "tracks heard from (%d, stalest first):\n", len(lines))
	const maxTracks = 16
	for i, l := range lines {
		if i == maxTracks {
			fmt.Fprintf(w, "  … and %d more\n", len(lines)-maxTracks)
			break
		}
		fmt.Fprintf(w, "  %-10s last %-15s ended at %dus\n", l.track, l.la.kind, l.la.end)
	}

	spans := f.Spans()
	dropped := f.spans.n - len(spans)
	fmt.Fprintf(w, "last %d spans (%d older dropped):\n", len(spans), dropped)
	for _, sp := range spans {
		fmt.Fprintf(w, "  %8d..%-8d %-10s %-15s block=%d arg=%d\n",
			sp.Start, sp.End, sp.Track, sp.Kind, sp.Block, sp.Arg)
	}

	deltas := f.ctrs.oldestFirst()
	fmt.Fprintf(w, "last %d counter increments:\n", len(deltas))
	for _, d := range deltas {
		fmt.Fprintf(w, "  %8dus %s +%d\n", d.At, d.Ctr, d.Delta)
	}
	fmt.Fprintf(w, "=== end flight recorder ===\n")
}

// WriteTrace writes the ring's spans and the sink's counter totals as
// a span trace (obs.Recorder.WriteTo), so a crash dump can be fed
// straight to `trace summary` / `trace timeline` or opened in
// ui.perfetto.dev.
func (f *Flight) WriteTrace(w io.Writer, totals obs.Counters) error {
	rec := obs.Recorder{Spans: f.Spans(), Counters: totals}
	_, err := rec.WriteTo(w)
	return err
}
