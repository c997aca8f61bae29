package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Named classes of trace-read failure, for callers (cmd/trace) that
// want to distinguish "not a trace at all" from "a trace that lost its
// tail". Test with errors.Is; the wrapped error carries the detail.
var (
	// ErrNotTrace means the input is not a trace-event JSON document:
	// it is some other kind of file, or empty.
	ErrNotTrace = errors.New("not a trace-event file")
	// ErrTraceTruncated means the document ends before its closing
	// brace: the file lost its tail (partial write, interrupted copy).
	ErrTraceTruncated = errors.New("truncated trace-event file")
)

// Recorder is a Sink that retains every span and counter increment in
// memory for later inspection, export, or serialization. It is not
// safe for concurrent use; attach one Recorder per simulation run.
//
// A Recorder may also hold a windowed series of the run, which the
// telemetry sink fills: Windows[i] covers virtual time [i·Width,
// (i+1)·Width), and the series ends at its last non-empty window.
// Width is 0 when there are no windows.
type Recorder struct {
	Spans    []Span
	Counters Counters
	Width    int64
	Windows  []Window
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Span implements Sink.
func (r *Recorder) Span(s Span) { r.Spans = append(r.Spans, s) }

// Add implements Sink.
func (r *Recorder) Add(c Counter, delta int64) { r.Counters[c] += delta }

// End returns the largest span end time in the trace, i.e. the virtual
// duration it covers.
func (r *Recorder) End() int64 {
	var end int64
	for _, s := range r.Spans {
		if s.End > end {
			end = s.End
		}
	}
	return end
}

// Tracks returns the distinct tracks present in the trace, sorted by
// kind then ID.
func (r *Recorder) Tracks() []Track {
	seen := make(map[Track]bool)
	var ts []Track
	for _, s := range r.Spans {
		if !seen[s.Track] {
			seen[s.Track] = true
			ts = append(ts, s.Track)
		}
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Kind != ts[j].Kind {
			return ts[i].Kind < ts[j].Kind
		}
		return ts[i].ID < ts[j].ID
	})
	return ts
}

// The span-trace file is Chrome/Perfetto trace-event JSON in the
// format's object flavor ({"traceEvents":[...]}), so a recorded run
// opens as written in ui.perfetto.dev or chrome://tracing. Virtual
// microseconds map one-to-one onto the format's "ts"/"dur" fields,
// which are also microseconds.
//
// Each TrackKind is one "process" (pid kind+1) and each track one
// "thread" (tid = track ID) in it, named by "M" metadata events. Sync
// span kinds, which nest on their track, are "X" complete events;
// async kinds (disk queueing, cache fills), which overlap freely, are
// "b"/"e" pairs written next to each other, which the viewer lays out
// on their own sub-tracks. A span's Arg is args.arg and its Block
// args.block, absent for -1. Each non-zero counter is one "C" event on
// pid 0 at the trace's end instant.
//
// The windowed series has a process of its own (windowsPID), which the
// viewer draws as counter tracks: a "window_width" metadata event holds
// the width, and each non-zero value of a window is one "C" event at
// the window's start, named by its series (window.go), in window then
// series order.

// traceEvent is one entry of the traceEvents array. Fields are pruned
// per phase via omitempty.
type traceEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	Cat  string     `json:"cat,omitempty"`
	TS   int64      `json:"ts"`
	Dur  *int64     `json:"dur,omitempty"`
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	ID   string     `json:"id,omitempty"`
	Args *traceArgs `json:"args,omitempty"`
}

// traceArgs holds the args keys of every phase: arg and block for a
// span, name for metadata, value for a counter.
type traceArgs struct {
	Arg   *int64 `json:"arg,omitempty"`
	Block *int   `json:"block,omitempty"`
	Name  string `json:"name,omitempty"`
	Value int64  `json:"value,omitempty"`
}

type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

var processNames = [numTrackKinds]string{"processors", "disks", "barrier"}

// windowsPID is the pid of the windowed series, after the track kinds'.
const windowsPID = int(numTrackKinds) + 1

// maxWindows bounds the windows a trace may hold, so a corrupt file
// cannot make Read allocate without limit: 65,536 windows are 65 s of
// virtual time at rapid's 1 ms minimum and 109 min at the telemetry
// sink's 100 ms default.
const maxWindows = 1 << 16

// WriteTo writes the trace as trace-event JSON: metadata naming the
// tracks and the window width, the spans in emission order, the
// windows, then the counters. The bytes are a pure function of the
// Recorder, and Read gives the Recorder back exactly.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	if len(r.Windows) > 0 && r.Width <= 0 || len(r.Windows) > maxWindows {
		return 0, fmt.Errorf("obs: %d windows of width %d: want a positive width and at most %d windows",
			len(r.Windows), r.Width, maxWindows)
	}
	events := make([]traceEvent, 0, 2*len(r.Spans)+8)
	tracks := r.Tracks()
	for i, t := range tracks {
		if i == 0 || tracks[i-1].Kind != t.Kind {
			events = append(events, traceEvent{
				Name: "process_name", Ph: "M", PID: int(t.Kind) + 1,
				Args: &traceArgs{Name: processNames[t.Kind]},
			})
		}
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", PID: int(t.Kind) + 1, TID: t.ID,
			Args: &traceArgs{Name: t.String()},
		})
	}
	if r.Width > 0 {
		events = append(events,
			traceEvent{Name: "process_name", Ph: "M", PID: windowsPID, Args: &traceArgs{Name: "windows"}},
			traceEvent{Name: "window_width", Ph: "M", PID: windowsPID, Args: &traceArgs{Value: r.Width}})
	}
	asyncID := 0
	for _, s := range r.Spans {
		args := &traceArgs{Arg: &s.Arg}
		if s.Block >= 0 {
			args.Block = &s.Block
		}
		name := s.Kind.String()
		ev := traceEvent{Name: name, Cat: name, TS: s.Start,
			PID: int(s.Track.Kind) + 1, TID: s.Track.ID, Args: args}
		if s.Kind.Async() {
			// The viewer joins an async pair by cat, id and pid.
			asyncID++
			ev.Ph, ev.ID = "b", fmt.Sprintf("a%d", asyncID)
			end := ev
			end.Ph, end.TS, end.Args = "e", s.End, nil
			events = append(events, ev, end)
			continue
		}
		dur := s.Dur()
		ev.Ph, ev.Dur = "X", &dur
		events = append(events, ev)
	}
	for i := range r.Windows {
		for j, name := range seriesNames {
			if v := *r.Windows[i].series(j); v != 0 {
				events = append(events, traceEvent{Name: name, Ph: "C",
					TS: int64(i) * r.Width, PID: windowsPID, Args: &traceArgs{Value: v}})
			}
		}
	}
	end := r.End()
	for c, v := range r.Counters {
		if v != 0 {
			events = append(events, traceEvent{Name: Counter(c).String(), Ph: "C",
				TS: end, Args: &traceArgs{Value: v}})
		}
	}
	b, err := json.Marshal(traceDoc{TraceEvents: events, DisplayTimeUnit: "ms"})
	if err != nil {
		return 0, err
	}
	n, err := w.Write(append(b, '\n'))
	return int64(n), err
}

// Read parses a trace written by WriteTo. It accepts only what WriteTo
// writes, so what it reads writes back to the same Recorder. Failures
// to parse the document wrap ErrTraceTruncated when it ends early and
// ErrNotTrace otherwise; an event WriteTo would not write is an error
// naming its index.
func Read(rd io.Reader) (*Recorder, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var doc traceDoc
	if err := dec.Decode(&doc); err != nil {
		switch {
		case err == io.EOF:
			return nil, fmt.Errorf("obs: %w: empty input", ErrNotTrace)
		case errors.Is(err, io.ErrUnexpectedEOF):
			return nil, fmt.Errorf("obs: %w: the document ends early", ErrTraceTruncated)
		}
		return nil, fmt.Errorf("obs: %w: %v", ErrNotTrace, err)
	}
	if doc.TraceEvents == nil {
		return nil, fmt.Errorf("obs: %w: no traceEvents array", ErrNotTrace)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("obs: data after the trace document")
	}
	rec := NewRecorder()
	evs := doc.TraceEvents
	last := int64(-1) // position of the last window value, index·len(seriesNames) + series
	for i := 0; i < len(evs); i++ {
		ev, at := evs[i], i
		bad := func(why string) error {
			return fmt.Errorf("obs: event %d (%q, ph %q): %s", at, ev.Name, ev.Ph, why)
		}
		switch {
		case ev.Ph == "M" && ev.Name == "window_width":
			if ev.PID != windowsPID || ev.Args == nil || ev.Args.Value <= 0 || rec.Width != 0 {
				return nil, bad("want one positive width on the windows' pid")
			}
			rec.Width = ev.Args.Value
			continue
		case ev.Ph == "M":
			continue
		case ev.Ph == "C" && ev.PID == windowsPID:
			j, ok := seriesIndex[ev.Name]
			if !ok || ev.Args == nil || ev.Args.Value == 0 {
				return nil, bad("not a non-zero window series")
			}
			if rec.Width == 0 || ev.TS < 0 || ev.TS%rec.Width != 0 || ev.TS/rec.Width >= maxWindows {
				return nil, bad(fmt.Sprintf("want the start of one of %d windows after the window width", maxWindows))
			}
			idx := ev.TS / rec.Width
			pos := idx*int64(len(seriesNames)) + int64(j)
			if pos <= last {
				return nil, bad("out of window and series order")
			}
			last = pos
			for int64(len(rec.Windows)) <= idx {
				rec.Windows = append(rec.Windows, Window{})
			}
			*rec.Windows[idx].series(j) = ev.Args.Value
			continue
		case ev.Ph == "C":
			c, err := ParseCounter(ev.Name)
			if err != nil || ev.PID != 0 || ev.Args == nil || ev.Args.Value == 0 {
				return nil, bad("not a non-zero counter on pid 0")
			}
			rec.Counters[c] = ev.Args.Value
			continue
		}
		kind, err := ParseSpanKind(ev.Name)
		if err != nil || ev.Ph != "X" && ev.Ph != "b" || kind.Async() != (ev.Ph == "b") {
			return nil, bad("not a span kind written in this phase")
		}
		a := ev.Args
		if ev.PID < 1 || ev.PID > int(numTrackKinds) || a == nil || a.Arg == nil ||
			a.Block != nil && *a.Block < 0 {
			return nil, bad("want a track kind's pid, args.arg and no negative args.block")
		}
		s := Span{Track: Track{TrackKind(ev.PID - 1), ev.TID}, Kind: kind,
			Start: ev.TS, Block: -1, Arg: *a.Arg}
		if a.Block != nil {
			s.Block = *a.Block
		}
		if ev.Ph == "X" {
			if ev.Dur == nil {
				return nil, bad("complete event without dur")
			}
			s.End = s.Start + *ev.Dur
		} else {
			// The pair's end follows its begin and repeats its name,
			// cat, id, pid and tid, with no dur or args.
			want := ev
			want.Ph, want.Dur, want.Args = "e", nil, nil
			if i++; i < len(evs) {
				want.TS = evs[i].TS
			}
			if i == len(evs) || evs[i] != want {
				return nil, bad("async begin not followed by its end")
			}
			s.End = want.TS
		}
		rec.Spans = append(rec.Spans, s)
	}
	return rec, nil
}

// CheckNesting checks the structure the trace's viewer relies on: no
// span ends before it starts, and the sync spans of a track nest (two
// are disjoint or one contains the other). It returns the first
// violation, tracks in Tracks order.
func (r *Recorder) CheckNesting() error {
	byTrack := make(map[Track][]Span)
	for _, s := range r.Spans {
		if s.End < s.Start {
			return fmt.Errorf("obs: %s %s [%d,%d] ends before it starts", s.Track, s.Kind, s.Start, s.End)
		}
		if !s.Kind.Async() {
			byTrack[s.Track] = append(byTrack[s.Track], s)
		}
	}
	for _, t := range r.Tracks() {
		// Sort by start, longer first on ties, then sweep a stack:
		// each span starts after the enclosing span ends (a sibling)
		// or ends within it (a child). A partial overlap is neither.
		spans := byTrack[t]
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].End > spans[j].End
		})
		var stack []Span
		for _, s := range spans {
			for len(stack) > 0 && s.Start >= stack[len(stack)-1].End {
				stack = stack[:len(stack)-1]
			}
			if n := len(stack); n > 0 && s.End > stack[n-1].End {
				top := stack[n-1]
				return fmt.Errorf("obs: track %s: %s [%d,%d] partially overlaps %s [%d,%d]",
					t, s.Kind, s.Start, s.End, top.Kind, top.Start, top.End)
			}
			stack = append(stack, s)
		}
	}
	return nil
}

// CounterSink is a Sink that accumulates counters only, dropping
// spans. Increments are atomic, so one CounterSink may be shared by
// simulations executing concurrently on the parallel runner's workers
// — aggregate totals are deterministic even though interleaving is
// not. Use it when only whole-suite totals are wanted (cmd/report -v)
// and retaining spans would cost too much memory.
type CounterSink struct {
	counters [numCounters]int64
}

// Span implements Sink; spans are discarded.
func (cs *CounterSink) Span(Span) {}

// Add implements Sink.
func (cs *CounterSink) Add(c Counter, delta int64) {
	atomic.AddInt64(&cs.counters[c], delta)
}

// Snapshot returns a copy of the current counter values.
func (cs *CounterSink) Snapshot() Counters {
	var out Counters
	for i := range cs.counters {
		out[i] = atomic.LoadInt64(&cs.counters[i])
	}
	return out
}

// Sub returns the counter deltas a − b.
func Sub(a, b Counters) Counters {
	var out Counters
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
