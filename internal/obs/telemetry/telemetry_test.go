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

	w := s.Windows()
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

	w := s.Windows()
	for i, want := range []int64{1, 1, 1} {
		if got := w[i].Ctrs[obs.CtrDiskRequests]; got != want {
			t.Errorf("window %d disk-requests = %d, want %d", i, got, want)
		}
	}
	if got := s.Totals()[obs.CtrDiskRequests]; got != 3 {
		t.Errorf("total disk-requests = %d, want 3", got)
	}
}

func TestHistBucketing(t *testing.T) {
	cases := []struct {
		us   int64
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11}, {1 << 40, HistBuckets - 1}}
	for _, c := range cases {
		if got := HistBucket(c.us); got != c.want {
			t.Errorf("HistBucket(%d) = %d, want %d", c.us, got, c.want)
		}
	}
	// Every bucket's lower bound maps back to that bucket.
	for b := 0; b < HistBuckets; b++ {
		if got := HistBucket(BucketLow(b)); got != b {
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
	w := s.Windows()[1] // spans end at 10 and 1000... 10µs spans land in window 0
	_ = w
	w0 := s.Windows()[0]
	if got := w0.Quantile(0, 0.5); got != BucketLow(HistBucket(10)) {
		t.Errorf("p50 = %d, want %d", got, BucketLow(HistBucket(10)))
	}
	if got := s.Windows()[1].Quantile(0, 0.5); got != BucketLow(HistBucket(1000)) {
		t.Errorf("window 1 p50 = %d, want %d", got, BucketLow(HistBucket(1000)))
	}
	var empty Window
	if got := empty.Quantile(0, 0.99); got != 0 {
		t.Errorf("empty-window quantile = %d, want 0", got)
	}
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

	rec := s.Sampled()
	if len(rec.Spans) != 3 { // 2 sampled procs + barrier
		t.Fatalf("recorder kept %d spans, want 3", len(rec.Spans))
	}
	for _, sp := range rec.Spans {
		if sp.Track.Kind == obs.TrackDisk {
			t.Errorf("disk span leaked into the sampled recorder")
		}
	}
	// All 10 proc spans still aggregated.
	if got := s.Windows()[0].Count[obs.SpanCompute]; got != 10 {
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
	if err := s.Flight().WriteTrace(&buf, s.Totals()); err != nil {
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

// TestSnapshotExports covers CSV and JSON round-trip basics.
func TestSnapshotExports(t *testing.T) {
	s := New(Config{Window: 100, SampleK: 1, Nodes: 4})
	s.Span(span(obs.ProcTrack(0), obs.SpanDiskQueue, 0, 30))
	s.Span(span(obs.ProcTrack(0), obs.SpanCompute, 0, 80))
	s.Add(obs.CtrCacheReadyHits, 3)
	s.Add(obs.CtrCacheMisses, 1)
	sn := s.Snapshot()

	var csvBuf bytes.Buffer
	if err := sn.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 window", len(lines))
	}
	if cols, want := len(strings.Split(lines[1], ",")), len(strings.Split(lines[0], ",")); cols != want {
		t.Errorf("CSV row has %d columns, header %d", cols, want)
	}
	if !strings.Contains(lines[1], "0.7500") {
		t.Errorf("CSV row missing hit rate 0.7500: %s", lines[1])
	}

	var jsonBuf bytes.Buffer
	if err := sn.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	if back.WindowMicros != 100 || len(back.Windows) != 1 {
		t.Errorf("round-trip snapshot: window %d µs, %d windows", back.WindowMicros, len(back.Windows))
	}
	if back.Windows[0].Dur[obs.SpanCompute] != 80 {
		t.Errorf("round-trip lost the compute sum")
	}
	if _, err := ReadJSON(strings.NewReader("{}")); err == nil {
		t.Error("ReadJSON accepted a snapshot with no window width")
	}
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("ReadJSON accepted garbage")
	}
}

// TestHitRate pins the -1 no-lookup sentinel.
func TestHitRate(t *testing.T) {
	var w Window
	if got := w.HitRate(); got != -1 {
		t.Errorf("empty window hit rate = %v, want -1", got)
	}
	w.Ctrs[obs.CtrCacheReadyHits] = 3
	w.Ctrs[obs.CtrCacheMisses] = 1
	if got := w.HitRate(); got != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", got)
	}
}

// TestSnapshotFaultColumns pins the fault columns PR 10 appended to the
// CSV export: they trail the pre-chaos layout (append-only, so existing
// consumers keep their column indexes) and carry the per-window
// injection and recovery deltas.
func TestSnapshotFaultColumns(t *testing.T) {
	s := New(Config{Window: 100})
	s.Add(obs.CtrFaultsInjected, 2)
	s.Add(obs.CtrReadRetries, 1)
	s.Add(obs.CtrQuorumReleases, 3)
	var buf bytes.Buffer
	if err := s.Snapshot().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 window", len(lines))
	}
	header := strings.Split(lines[0], ",")
	wantTail := []string{
		"fault_draws", "faults_injected", "disk_faulted",
		"read_retries", "failed_fills",
		"node_stalls", "quorum_releases", "takeover_reads",
	}
	tail := header[len(header)-len(wantTail):]
	for i, want := range wantTail {
		if tail[i] != want {
			t.Fatalf("fault column %d = %q, want %q (full header %v)", i, tail[i], want, header)
		}
	}
	row := strings.Split(lines[1], ",")
	cell := func(name string) string {
		for i, h := range header {
			if h == name {
				return row[i]
			}
		}
		t.Fatalf("no column %q", name)
		return ""
	}
	if got := cell("faults_injected"); got != "2" {
		t.Errorf("faults_injected = %s, want 2", got)
	}
	if got := cell("read_retries"); got != "1" {
		t.Errorf("read_retries = %s, want 1", got)
	}
	if got := cell("quorum_releases"); got != "3" {
		t.Errorf("quorum_releases = %s, want 3", got)
	}
}
