package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

func span(track obs.Track, kind obs.SpanKind, start, end int64) obs.Span {
	return obs.Span{Track: track, Kind: kind, Start: start, End: end, Block: -1}
}

// TestWindowAttribution pins the core folding rule: a span lands in
// the window its end instant falls in, with its whole duration.
func TestWindowAttribution(t *testing.T) {
	s := New(Config{Window: 100})
	s.Span(span(obs.ProcTrack(0), obs.SpanCompute, 10, 50))    // window 0
	s.Span(span(obs.ProcTrack(1), obs.SpanCompute, 90, 150))   // window 1, crosses the edge
	s.Span(span(obs.ProcTrack(0), obs.SpanDemandWait, 0, 250)) // window 2, longer than a window

	w := s.Recorder().Windows
	if len(w) != 3 {
		t.Fatalf("got %d windows, want 3", len(w))
	}
	if w[0].Dur[obs.SpanCompute] != 40 || w[0].Count[obs.SpanCompute] != 1 {
		t.Errorf("window 0 compute = %d µs ×%d, want 40 ×1",
			w[0].Dur[obs.SpanCompute], w[0].Count[obs.SpanCompute])
	}
	if w[1].Dur[obs.SpanCompute] != 60 {
		t.Errorf("window 1 books %d µs of the edge-crossing span, want all 60",
			w[1].Dur[obs.SpanCompute])
	}
	if w[2].Dur[obs.SpanDemandWait] != 250 {
		t.Errorf("window 2 books %d µs of the long wait, want all 250",
			w[2].Dur[obs.SpanDemandWait])
	}
}

// TestCounterAttribution: without a clock, counter increments land in
// the window of the latest span end seen; with a clock, at the clock.
func TestCounterAttribution(t *testing.T) {
	s := New(Config{Window: 100})
	s.Add(obs.CtrDiskRequests, 1) // no time yet → window 0
	s.Span(span(obs.ProcTrack(0), obs.SpanCompute, 100, 150))
	s.Add(obs.CtrDiskRequests, 1) // lastTime 150 → window 1

	now := int64(250)
	s.SetClock(func() int64 { return now })
	s.Add(obs.CtrDiskRequests, 1) // clock 250 → window 2

	w := s.Recorder().Windows
	for i, want := range []int64{1, 1, 1} {
		if got := w[i].Ctrs[obs.CtrDiskRequests]; got != want {
			t.Errorf("window %d disk-requests = %d, want %d", i, got, want)
		}
	}
	if got := s.Recorder().Counters[obs.CtrDiskRequests]; got != 3 {
		t.Errorf("total disk-requests = %d, want 3", got)
	}
}

func TestHistBucketing(t *testing.T) {
	cases := []struct {
		us   int64
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11}, {1 << 40, obs.HistBuckets - 1}}
	for _, c := range cases {
		if got := obs.HistBucket(c.us); got != c.want {
			t.Errorf("HistBucket(%d) = %d, want %d", c.us, got, c.want)
		}
	}
	// Every bucket's lower bound maps back to that bucket.
	for b := 0; b < obs.HistBuckets; b++ {
		if got := obs.HistBucket(obs.BucketLow(b)); got != b {
			t.Errorf("HistBucket(BucketLow(%d)) = %d", b, got)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := New(Config{Window: 1000})
	// 9 disk-queue spans of 10 µs, one of 1000 µs: p50 in the 10 µs
	// bucket, p95 in the 1000 µs bucket.
	for i := 0; i < 9; i++ {
		s.Span(span(obs.DiskTrack(0), obs.SpanDiskQueue, 0, 10))
	}
	s.Span(span(obs.DiskTrack(0), obs.SpanDiskQueue, 0, 1000))
	// The 10 µs spans end in window 0, the 1000 µs one in window 1.
	w := s.Recorder().Windows
	if got, want := w[0].Quantile(obs.SpanDiskQueue, 0.5), obs.BucketLow(obs.HistBucket(10)); got != want {
		t.Errorf("p50 = %d, want %d", got, want)
	}
	if got, want := w[1].Quantile(obs.SpanDiskQueue, 0.5), obs.BucketLow(obs.HistBucket(1000)); got != want {
		t.Errorf("window 1 p50 = %d, want %d", got, want)
	}
	var empty obs.Window
	if got := empty.Quantile(obs.SpanDiskQueue, 0.99); got != 0 {
		t.Errorf("empty-window quantile = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Quantile of a kind with no histogram did not panic")
		}
	}()
	empty.Quantile(obs.SpanCompute, 0.5)
}

// TestSampleNodesDeterministic pins the seed-hashed selection: same
// inputs → same sample; a bigger K refines rather than replaces; the
// sample changes with the seed.
func TestSampleNodesDeterministic(t *testing.T) {
	a := SampleNodes(42, 100_000, 16)
	b := SampleNodes(42, 100_000, 16)
	if len(a) != 16 {
		t.Fatalf("sample size %d, want 16", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("repeat sample differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Growing K keeps the first picks: the K=16 set is a subset of K=64.
	big := SampleNodes(42, 100_000, 64)
	set := make(map[int]bool, len(big))
	for _, id := range big {
		set[id] = true
	}
	for _, id := range a {
		if !set[id] {
			t.Errorf("node %d in K=16 sample but not in K=64", id)
		}
	}
	other := SampleNodes(43, 100_000, 16)
	same := 0
	for i := range a {
		if a[i] == other[i] {
			same++
		}
	}
	if same == 16 {
		t.Error("different seeds produced an identical sample")
	}
	if got := SampleNodes(1, 4, 10); len(got) != 4 {
		t.Errorf("K>N sample has %d entries, want 4", len(got))
	}
	if got := SampleNodes(1, 0, 4); got != nil {
		t.Errorf("empty population sampled %v", got)
	}
}

// TestSampledRecorder: only spans on sampled proc tracks (plus the
// barrier track) reach the embedded recorder.
func TestSampledRecorder(t *testing.T) {
	s := New(Config{Window: 100, SampleK: 2, Nodes: 10, SampleSeed: 7})
	ids := s.SampleIDs()
	if len(ids) != 2 {
		t.Fatalf("sampled %v, want 2 nodes", ids)
	}
	for node := 0; node < 10; node++ {
		s.Span(span(obs.ProcTrack(node), obs.SpanCompute, 0, 10))
	}
	s.Span(span(obs.BarrierTrack(), obs.SpanBarrierGen, 0, 20))
	s.Span(span(obs.DiskTrack(0), obs.SpanDiskTransfer, 0, 30))

	rec := s.Recorder()
	if len(rec.Spans) != 3 { // 2 sampled procs + barrier
		t.Fatalf("recorder kept %d spans, want 3", len(rec.Spans))
	}
	for _, sp := range rec.Spans {
		if sp.Track.Kind == obs.TrackDisk {
			t.Errorf("disk span leaked into the sampled recorder")
		}
	}
	// All 10 proc spans still aggregated.
	if got := rec.Windows[0].Count[obs.SpanCompute]; got != 10 {
		t.Errorf("window counted %d compute spans, want 10", got)
	}
}

// TestFlightRing: the rings keep the last FlightSpans spans and
// FlightCtrs counter increments, and the dump names the stalest track
// first.
func TestFlightRing(t *testing.T) {
	s := New(Config{Window: 100})
	const extra = 6
	for i := int64(0); i < FlightSpans+extra; i++ {
		s.Span(span(obs.ProcTrack(int(i%10)), obs.SpanCompute, i*10, i*10+5))
	}
	for d := int64(1); d <= FlightCtrs+1; d++ {
		s.Add(obs.CtrDiskRequests, d) // the ring drops +1
	}

	spans := s.Flight().Spans()
	if len(spans) != FlightSpans {
		t.Fatalf("ring holds %d spans, want %d", len(spans), FlightSpans)
	}
	first, last := int64(extra*10), int64((FlightSpans+extra-1)*10)
	if spans[0].Start != first || spans[len(spans)-1].Start != last {
		t.Errorf("ring spans [%d..%d], want oldest-first %d..%d",
			spans[0].Start, spans[len(spans)-1].Start, first, last)
	}

	var buf bytes.Buffer
	s.Flight().Dump(&buf, "test cause")
	out := buf.String()
	for _, want := range []string{
		"cause: test cause",
		// proc2 was last heard at span 252, before every other track.
		"stalest first):\n  proc2 ",
		fmt.Sprintf("last %d spans (%d older dropped)", FlightSpans, extra),
		"disk-requests +2\n",
		fmt.Sprintf("disk-requests +%d\n", FlightCtrs+1),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "disk-requests +1\n") {
		t.Error("dump contains an increment the ring should have dropped")
	}
	// The stalest track is named before the freshest (proc1, span 261).
	if strings.Index(out, "proc2") > strings.Index(out, "proc1") {
		t.Error("dump digest not sorted stalest-first")
	}
}

// TestFlightTraceRoundTrips: the crash ring exports as a valid span
// trace.
func TestFlightTraceRoundTrips(t *testing.T) {
	s := New(Config{Window: 100})
	for i := int64(0); i < 5; i++ {
		s.Span(span(obs.ProcTrack(0), obs.SpanCompute, i*10, i*10+5))
	}
	s.Add(obs.CtrDiskRequests, 7)
	var buf bytes.Buffer
	if err := s.Flight().WriteTrace(&buf, s.Recorder().Counters); err != nil {
		t.Fatal(err)
	}
	rec, err := obs.Read(&buf)
	if err != nil {
		t.Fatalf("crash trace does not round-trip: %v", err)
	}
	if len(rec.Spans) != 5 || rec.Counters[obs.CtrDiskRequests] != 7 {
		t.Errorf("round-trip got %d spans, disk-requests %d", len(rec.Spans), rec.Counters[obs.CtrDiskRequests])
	}
}

// TestDumpFlight drives the engine-facing entry point.
func TestDumpFlight(t *testing.T) {
	var human, trace bytes.Buffer
	s := New(Config{Window: 100, FlightOut: &human, FlightTrace: &trace})
	s.Span(span(obs.ProcTrack(3), obs.SpanSyncWait, 0, 40))
	s.DumpFlight("deadlock: proc3 stuck")
	if !strings.Contains(human.String(), "deadlock: proc3 stuck") {
		t.Error("human dump missing the cause")
	}
	if _, err := obs.Read(&trace); err != nil {
		t.Errorf("trace dump unreadable: %v", err)
	}
}

// TestHitRate pins the -1 no-lookup sentinel.
func TestHitRate(t *testing.T) {
	var w obs.Window
	if got := w.HitRate(); got != -1 {
		t.Errorf("empty window hit rate = %v, want -1", got)
	}
	w.Ctrs[obs.CtrCacheReadyHits] = 3
	w.Ctrs[obs.CtrCacheMisses] = 1
	if got := w.HitRate(); got != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", got)
	}
}
