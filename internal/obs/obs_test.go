package obs

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestSpanKindRoundTrip(t *testing.T) {
	for k := SpanKind(0); k < SpanKind(numSpanKinds); k++ {
		got, err := ParseSpanKind(k.String())
		if err != nil {
			t.Fatalf("ParseSpanKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseSpanKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseSpanKind("bogus"); err == nil {
		t.Fatal("ParseSpanKind accepted a bogus name")
	}
}

func TestCounterRoundTrip(t *testing.T) {
	for c := Counter(0); c < Counter(NumCounters); c++ {
		got, err := ParseCounter(c.String())
		if err != nil {
			t.Fatalf("ParseCounter(%q): %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("ParseCounter(%q) = %v, want %v", c.String(), got, c)
		}
	}
}

// sample builds a small, well-nested recorder shared by the tests.
func sample() *Recorder {
	r := NewRecorder()
	r.Add(CtrKernelEvents, 42)
	r.Add(CtrDiskRequests, 3)
	r.Span(Span{Track: ProcTrack(0), Kind: SpanCompute, Start: 0, End: 100, Block: -1})
	r.Span(Span{Track: ProcTrack(0), Kind: SpanRead, Start: 100, End: 300, Block: 7})
	r.Span(Span{Track: ProcTrack(0), Kind: SpanDemandWait, Start: 120, End: 280, Block: 7, Arg: 160})
	r.Span(Span{Track: ProcTrack(1), Kind: SpanSyncWait, Start: 0, End: 250, Block: -1, Arg: 250})
	r.Span(Span{Track: DiskTrack(2), Kind: SpanDiskQueue, Start: 110, End: 140, Block: 7})
	r.Span(Span{Track: DiskTrack(2), Kind: SpanDiskTransfer, Start: 140, End: 260, Block: 7})
	r.Span(Span{Track: BarrierTrack(), Kind: SpanBarrierGen, Start: 200, End: 250, Block: -1, Arg: 2})
	return r
}

// windowed is sample plus a windowed series: an empty window between
// two filled ones, and values in counter, duration, count and
// histogram series, fault counters included.
func windowed() *Recorder {
	r := sample()
	r.Width = 100
	r.Windows = make([]Window, 3)
	r.Windows[0].AddSpan(Span{Track: ProcTrack(0), Kind: SpanCompute, Start: 0, End: 100, Block: -1})
	r.Windows[0].Ctrs[CtrKernelEvents] = 5
	r.Windows[2].AddSpan(Span{Track: DiskTrack(2), Kind: SpanDiskQueue, Start: 110, End: 240, Block: 7})
	r.Windows[2].Ctrs[CtrFaultsInjected] = 2
	r.Windows[2].Ctrs[CtrTakeoverReads] = 1
	return r
}

func TestRecorderRoundTrip(t *testing.T) {
	for _, r := range []*Recorder{sample(), windowed()} {
		var a strings.Builder
		if _, err := r.WriteTo(&a); err != nil {
			t.Fatal(err)
		}
		back, err := Read(strings.NewReader(a.String()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("round trip changed the trace:\n%+v\n%+v", r, back)
		}
		var b strings.Builder
		if _, err := back.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("round trip not byte-identical:\n--- first\n%s--- second\n%s", a.String(), b.String())
		}
	}
	if _, err := Read(strings.NewReader("not a trace\n")); !errors.Is(err, ErrNotTrace) {
		t.Fatalf("Read of a non-trace = %v, want ErrNotTrace", err)
	}
	if _, err := (&Recorder{Windows: []Window{{}}}).WriteTo(io.Discard); err == nil {
		t.Fatal("WriteTo wrote windows without a width")
	}
}

// TestReadRefusesNonCanonical feeds Read events that WriteTo never
// writes, and Read must refuse each: what it accepts writes back
// unchanged.
func TestReadRefusesNonCanonical(t *testing.T) {
	const x = `{"name":"compute","ph":"X","cat":"compute","ts":0,"dur":5,"pid":1,"tid":0,"args":{"arg":0%s}}`
	const b = `{"name":"disk-queue","ph":"b","cat":"disk-queue","ts":0,"pid":2,"tid":0,"id":"a1","args":{"arg":0}}`
	const w = `{"name":"window_width","ph":"M","pid":4,"tid":0,"args":{"value":100}},`
	c := func(series string, ts, v int64) string {
		return fmt.Sprintf(`{"name":%q,"ph":"C","ts":%d,"pid":4,"tid":0,"args":{"value":%d}}`, series, ts, v)
	}
	for name, events := range map[string]string{
		"negative block":     fmt.Sprintf(x, `,"block":-5`),
		"unknown arg":        fmt.Sprintf(x, `,"node":3`),
		"no dur":             `{"name":"compute","ph":"X","ts":0,"pid":1,"tid":0,"args":{"arg":0}}`,
		"no arg":             `{"name":"compute","ph":"X","ts":0,"dur":5,"pid":1,"tid":0,"args":{}}`,
		"pid 0 span":         `{"name":"compute","ph":"X","ts":0,"dur":5,"pid":0,"tid":0,"args":{"arg":0}}`,
		"async as complete":  `{"name":"disk-queue","ph":"X","ts":0,"dur":5,"pid":2,"tid":0,"args":{"arg":0}}`,
		"begin alone":        b,
		"end alone":          `{"name":"disk-queue","ph":"e","cat":"disk-queue","ts":9,"pid":2,"tid":0,"id":"a1"}`,
		"end of another id":  b + `,{"name":"disk-queue","ph":"e","cat":"disk-queue","ts":9,"pid":2,"tid":0,"id":"a2"}`,
		"end with args":      b + `,{"name":"disk-queue","ph":"e","cat":"disk-queue","ts":9,"pid":2,"tid":0,"id":"a1","args":{"arg":0}}`,
		"zero counter":       `{"name":"disk-requests","ph":"C","ts":0,"pid":0,"tid":0,"args":{"value":0}}`,
		"unknown counter":    `{"name":"widgets","ph":"C","ts":0,"pid":0,"tid":0,"args":{"value":1}}`,
		"unknown phase":      `{"name":"compute","ph":"B","ts":0,"pid":1,"tid":0}`,
		"unknown span kind":  `{"name":"nap","ph":"X","ts":0,"dur":5,"pid":1,"tid":0,"args":{"arg":0}}`,
		"second document":    `]}{"traceEvents":[`,
		"fractional instant": `{"name":"compute","ph":"X","ts":0.5,"dur":5,"pid":1,"tid":0,"args":{"arg":0}}`,
		"counter off pid 0":  `{"name":"disk-requests","ph":"C","ts":0,"pid":2,"tid":0,"args":{"value":1}}`,

		"window out of order":   w + c("kernel-events", 100, 1) + "," + c("kernel-events", 0, 1),
		"series out of order":   w + c("compute-us", 0, 5) + "," + c("kernel-events", 0, 1),
		"repeated series":       w + c("kernel-events", 0, 1) + "," + c("kernel-events", 0, 2),
		"zero window value":     w + c("kernel-events", 0, 0),
		"off the window grid":   w + c("kernel-events", 50, 1),
		"negative window":       w + c("kernel-events", -100, 1),
		"past the window bound": w + c("kernel-events", 100*maxWindows, 1),
		"window without width":  c("kernel-events", 0, 1),
		"unknown series":        w + c("widgets-us", 0, 1),
		"second width":          w + w + c("kernel-events", 0, 1),
		"zero width":            `{"name":"window_width","ph":"M","pid":4,"tid":0,"args":{"value":0}}`,
		"width off its pid":     `{"name":"window_width","ph":"M","pid":0,"tid":0,"args":{"value":100}}`,
	} {
		doc := `{"traceEvents":[` + events + `],"displayTimeUnit":"ms"}`
		if rec, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: Read accepted %s as %+v", name, doc, rec)
		}
	}
	// The same events written canonically read back.
	for _, events := range []string{fmt.Sprintf(x, `,"block":5`),
		b + `,{"name":"disk-queue","ph":"e","cat":"disk-queue","ts":9,"pid":2,"tid":0,"id":"a1"}`} {
		if _, err := Read(strings.NewReader(`{"traceEvents":[` + events + `]}`)); err != nil {
			t.Errorf("Read refused %s: %v", events, err)
		}
	}
	// Windows in order rebuild the empty window between filled ones.
	events := w + c("kernel-events", 0, 1) + "," + c("compute-us", 0, 5) + "," + c("disk-queue-bucket-7", 200, 3)
	rec, err := Read(strings.NewReader(`{"traceEvents":[` + events + `]}`))
	if err != nil {
		t.Fatalf("Read refused %s: %v", events, err)
	}
	var want [3]Window
	want[0].Ctrs[CtrKernelEvents], want[0].Dur[SpanCompute], want[2].Hist[0][7] = 1, 5, 3
	if rec.Width != 100 || !reflect.DeepEqual(rec.Windows, want[:]) {
		t.Errorf("Read %s as width %d, windows %+v", events, rec.Width, rec.Windows)
	}
}

func TestRecorderEndAndTracks(t *testing.T) {
	r := sample()
	if got := r.End(); got != 300 {
		t.Fatalf("End = %d, want 300", got)
	}
	tracks := r.Tracks()
	if len(tracks) != 4 {
		t.Fatalf("Tracks = %v, want 4 tracks", tracks)
	}
	// Sorted: procs, then disks, then barrier.
	want := []Track{ProcTrack(0), ProcTrack(1), DiskTrack(2), BarrierTrack()}
	for i, tr := range want {
		if tracks[i] != tr {
			t.Fatalf("Tracks[%d] = %v, want %v", i, tracks[i], tr)
		}
	}
}

func TestAccounting(t *testing.T) {
	r := sample()
	acc := r.Account()
	if acc.Horizon != 300 {
		t.Fatalf("Horizon = %d, want 300", acc.Horizon)
	}
	if len(acc.Procs) != 2 {
		t.Fatalf("got %d proc accounts, want 2", len(acc.Procs))
	}
	p0 := acc.Procs[0]
	// proc0: compute 100, read 100..300 with demand-wait 120..280 nested:
	// demand-wait 160, read self-time 40 -> Other, no gap.
	if got := p0.Buckets[BucketCompute]; got != 100 {
		t.Errorf("p0 compute = %d, want 100", got)
	}
	if got := p0.Buckets[BucketDemandWait]; got != 160 {
		t.Errorf("p0 demand-wait = %d, want 160", got)
	}
	if got := p0.Buckets[BucketOther]; got != 40 {
		t.Errorf("p0 other (read self-time) = %d, want 40", got)
	}
	if got := p0.Total(); got != acc.Horizon {
		t.Errorf("p0 total = %d, want horizon %d", got, acc.Horizon)
	}
	// proc1: sync-wait 250 plus a 50 gap to the horizon -> Other.
	p1 := acc.Procs[1]
	if got := p1.Buckets[BucketSyncWait]; got != 250 {
		t.Errorf("p1 sync-wait = %d, want 250", got)
	}
	if got := p1.Buckets[BucketOther]; got != 50 {
		t.Errorf("p1 other (gap) = %d, want 50", got)
	}
	rep := acc.Report()
	if !strings.Contains(rep, "TOTAL") || !strings.Contains(rep, "demand-wait") {
		t.Fatalf("report missing expected rows:\n%s", rep)
	}
	d := Diff(acc, acc, "a", "b")
	if !strings.Contains(d, "+0") {
		t.Fatalf("self-diff should be all zero deltas:\n%s", d)
	}
}

// TestPerfettoValidates writes the sample trace, reads it back and runs
// the nesting check.
func TestPerfettoValidates(t *testing.T) {
	var sb strings.Builder
	if _, err := sample().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.CheckNesting(); err != nil {
		t.Fatalf("CheckNesting: %v\n%s", err, sb.String())
	}
}

func TestPerfettoCatchesBadNesting(t *testing.T) {
	for name, spans := range map[string][]Span{
		// Partial overlap on one track: 0..100 and 50..150.
		"overlap": {
			{Track: ProcTrack(0), Kind: SpanCompute, Start: 0, End: 100, Block: -1},
			{Track: ProcTrack(0), Kind: SpanFSWork, Start: 50, End: 150, Block: -1},
		},
		"sync ends first":  {{Track: ProcTrack(0), Kind: SpanCompute, Start: 100, End: 50, Block: -1}},
		"async ends first": {{Track: DiskTrack(0), Kind: SpanDiskQueue, Start: 100, End: 50, Block: -1}},
	} {
		r := NewRecorder()
		for _, s := range spans {
			r.Span(s)
		}
		if err := r.CheckNesting(); err == nil {
			t.Errorf("%s: CheckNesting accepted %v", name, spans)
		}
	}
	// Async spans overlap freely, and sync spans on different tracks
	// may overlap.
	r := NewRecorder()
	r.Span(Span{Track: DiskTrack(0), Kind: SpanDiskQueue, Start: 0, End: 100})
	r.Span(Span{Track: DiskTrack(0), Kind: SpanDiskQueue, Start: 50, End: 150})
	r.Span(Span{Track: ProcTrack(0), Kind: SpanCompute, Start: 0, End: 100})
	r.Span(Span{Track: ProcTrack(1), Kind: SpanCompute, Start: 50, End: 150})
	if err := r.CheckNesting(); err != nil {
		t.Errorf("CheckNesting refused a well-nested trace: %v", err)
	}
}

func TestTimeline(t *testing.T) {
	r := sample()
	out := r.Timeline(TimelineOptions{Width: 30})
	for _, want := range []string{"proc0", "proc1", "disk2", "barrier", "legend:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// Filtered to proc1, the other rows disappear.
	out = r.Timeline(TimelineOptions{Width: 30, Tracks: []Track{ProcTrack(1)}})
	if strings.Contains(out, "disk2") || !strings.Contains(out, "proc1") {
		t.Fatalf("track filter failed:\n%s", out)
	}
	// Window clipping keeps the render within bounds.
	out = r.Timeline(TimelineOptions{From: 50, To: 150, Width: 20})
	if !strings.Contains(out, "150 us") {
		t.Fatalf("window end missing:\n%s", out)
	}
}

func TestCounterSink(t *testing.T) {
	cs := &CounterSink{}
	cs.Add(CtrDiskRequests, 2)
	cs.Add(CtrDiskRequests, 3)
	cs.Span(Span{}) // dropped, must not panic
	snap := cs.Snapshot()
	if snap.Get(CtrDiskRequests) != 5 {
		t.Fatalf("snapshot = %d, want 5", snap.Get(CtrDiskRequests))
	}
	d := Sub(snap, Counters{})
	if d.Get(CtrDiskRequests) != 5 {
		t.Fatalf("Sub = %d, want 5", d.Get(CtrDiskRequests))
	}
}
