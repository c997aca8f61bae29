package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rapid "repro"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

func runCmd(t *testing.T, args ...string) (stdout string, err error) {
	t.Helper()
	var out, errb strings.Builder
	err = run(args, &out, &errb)
	return out.String(), err
}

// record writes the span trace of a small deterministic run into dir,
// the run `rapid -pattern gw -sync each -procs 4 -blocks 120 -seed 7
// -trace` records, and returns its path.
func record(t *testing.T, dir, name string, prefetch bool) string {
	t.Helper()
	cfg := rapid.DefaultConfig(rapid.GW)
	cfg.Procs, cfg.Disks, cfg.Pattern.Procs = 4, 4, 4
	cfg.Pattern.TotalBlocks = 120
	cfg.Pattern.Seed, cfg.Seed = 7, 7
	cfg.Sync = rapid.SyncEveryNEach
	cfg.Prefetch = prefetch
	rec := obs.NewRecorder()
	cfg.Obs = rec
	if _, err := rapid.Run(cfg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"nosuchcmd"},
		{"summary"},           // missing file
		{"summary", "a", "b"}, // too many files
		{"diff", "only-one"},  // needs two
		{"dump", "-span", "bogus", os.DevNull},
	} {
		if _, err := runCmd(t, args...); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRecordSummaryTimeline(t *testing.T) {
	dir := t.TempDir()
	spans := record(t, dir, "pf.json", true)

	sum, err := runCmd(t, "summary", spans)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counters:", "kernel-events", "idle-time accounting", "TOTAL"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}

	tl, err := runCmd(t, "timeline", "-proc", "0", spans)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl, "proc0") || strings.Contains(tl, "disk0") {
		t.Fatalf("timeline filter failed:\n%s", tl)
	}

	dump, err := runCmd(t, "dump", "-span", "barrier-gen", spans)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump, "barrier-gen") {
		t.Fatalf("dump missing barrier spans:\n%s", dump)
	}
}

// TestPerfettoExportAndVerify checks a recorded trace with verify, and
// verify's refusal of a trace whose sync spans do not nest and of a
// file that is not a trace.
func TestPerfettoExportAndVerify(t *testing.T) {
	dir := t.TempDir()
	spans := record(t, dir, "pf.json", true)
	out, err := runCmd(t, "verify", spans)
	if err != nil {
		t.Fatalf("verify %s: %v", spans, err)
	}
	if !strings.Contains(out, "ok:") {
		t.Fatalf("verify output: %q", out)
	}

	rec := obs.NewRecorder()
	rec.Span(obs.Span{Track: obs.ProcTrack(0), Kind: obs.SpanCompute, Start: 0, End: 100, Block: -1})
	rec.Span(obs.Span{Track: obs.ProcTrack(0), Kind: obs.SpanFSWork, Start: 50, End: 150, Block: -1})
	var sb strings.Builder
	if _, err := rec.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	overlap := filepath.Join(dir, "overlap.json")
	if err := os.WriteFile(overlap, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "verify", overlap); err == nil || !strings.Contains(err.Error(), "partially overlaps") {
		t.Errorf("verify of overlapping spans = %v, want the overlap named", err)
	}
	if _, err := runCmd(t, "verify", os.DevNull); !errors.Is(err, obs.ErrNotTrace) {
		t.Errorf("verify of an empty file = %v, want ErrNotTrace", err)
	}
}

func TestDiffPrefetchOnOff(t *testing.T) {
	dir := t.TempDir()
	pf := record(t, dir, "pf.json", true)
	nopf := record(t, dir, "nopf.json", false)
	out, err := runCmd(t, "diff", nopf, pf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"demand-wait", "prefetch", "TOTAL", "horizon"} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff missing %q:\n%s", want, out)
		}
	}
}

func TestRecordDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := record(t, dir, "a.json", true)
	b := record(t, dir, "b.json", true)
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Fatal("two identical runs wrote different traces")
	}
	if len(da) == 0 {
		t.Fatal("empty trace recorded")
	}
}

// TestMalformedTraceErrors drives each flavor of broken trace file
// through the summary subcommand and checks that the command fails
// with the named error class from internal/obs — a partial scp or a
// file of another kind must be a loud, diagnosable failure, not a
// silently shorter accounting.
func TestMalformedTraceErrors(t *testing.T) {
	dir := t.TempDir()
	good, err := os.ReadFile(record(t, dir, "good.json", false))
	if err != nil {
		t.Fatal(err)
	}
	if len(good) < 1000 {
		t.Fatalf("recorded trace unusable as fixture: %d bytes", len(good))
	}

	cases := []struct {
		name    string
		content string
		want    error // nil: any error will do
	}{
		{"empty", "", obs.ErrNotTrace},
		{"not-a-trace", "hello world\nspan 1 2 3\n", obs.ErrNotTrace},
		{"telemetry-snapshot", `{"windowMicros":100000,"windows":[]}`, obs.ErrNotTrace},
		{"cut-mid-stream", string(good[:len(good)/2]), obs.ErrTraceTruncated},
		{"cut-before-close", string(good[:len(good)-2]), obs.ErrTraceTruncated},
		{"garbage-record", `{"traceEvents":[{"name":"what","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"args":{"arg":0}}]}`, nil},
		{"async-begin-alone", `{"traceEvents":[{"name":"disk-queue","ph":"b","cat":"disk-queue","ts":0,"pid":2,"tid":0,"id":"a1","args":{"arg":0}}]}`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := runCmd(t, "summary", path)
			if err == nil {
				t.Fatal("summary accepted a malformed trace")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			if err.Error() == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestTimeseriesSubcommand exercises the sparkline/table rendering of
// a telemetry trace end to end through the CLI: the file rapid
// -telemetry writes renders as a readable report and reads like any
// other trace, while a telemetry snapshot JSON, which is not a
// trace-event file, and a span trace with no windows are refused.
func TestTimeseriesSubcommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.telemetry.json")
	writeTelemetry(t, path, rapid.FaultConfig{})

	out, err := runCmd(t, "timeseries", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"windows of", "sampled nodes: [", "events/sec", "hit rate", "start ms", "queue p95"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeseries output missing %q:\n%s", want, out)
		}
	}
	// The sampled spans and the run's totals are a trace like any other.
	if out, err := runCmd(t, "verify", path); err != nil || !strings.Contains(out, "ok:") {
		t.Fatalf("verify of the telemetry trace = %q, %v", out, err)
	}
	if out, err := runCmd(t, "summary", path); err != nil || !strings.Contains(out, "kernel-events") {
		t.Fatalf("summary of the telemetry trace lacks the totals: %q, %v", out, err)
	}

	bogus := filepath.Join(dir, "bogus.json")
	if err := os.WriteFile(bogus, []byte(`{"windowMicros": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "timeseries", bogus); !errors.Is(err, obs.ErrNotTrace) {
		t.Fatalf("timeseries of a snapshot JSON = %v, want ErrNotTrace", err)
	}
	plain := record(t, dir, "plain.json", true)
	if _, err := runCmd(t, "timeseries", plain); err == nil || !strings.Contains(err.Error(), plain) {
		t.Fatalf("timeseries of a span trace = %v, want a refusal naming %s", err, plain)
	}
	if _, err := runCmd(t, "timeseries"); err == nil {
		t.Fatal("timeseries accepted zero file arguments")
	}
}

// TestTimeseriesFaultView: windows with fault activity grow the fault
// sparklines and table columns; fault-free windows render without
// them (the pre-chaos layout, byte-stable).
func TestTimeseriesFaultView(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.telemetry.json")
	writeTelemetry(t, clean, rapid.FaultConfig{})
	out, err := runCmd(t, "timeseries", clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"faults/sec", "retries"} {
		if strings.Contains(out, absent) {
			t.Fatalf("fault-free timeseries shows fault view %q:\n%s", absent, out)
		}
	}

	faulted := filepath.Join(dir, "faulted.telemetry.json")
	writeTelemetry(t, faulted, rapid.FaultConfig{Seed: 9, ReadErrorRate: 0.2})
	out, err = runCmd(t, "timeseries", faulted)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"faults/sec", "retries/sec", "faults", "retries", "stalls", "quorum"} {
		if !strings.Contains(out, want) {
			t.Fatalf("faulted timeseries missing %q:\n%s", want, out)
		}
	}
}

// writeTelemetry runs a small experiment under fc with the windowed
// telemetry sink attached, sampling 2 of its 4 nodes, and writes the
// sink's recorder to path, as rapid -telemetry -sample 2 does.
func writeTelemetry(t *testing.T, path string, fc rapid.FaultConfig) {
	t.Helper()
	tel := telemetry.New(telemetry.Config{Window: 50_000, SampleK: 2, Nodes: 4})
	cfg := rapid.DefaultConfig(rapid.GW)
	cfg.Procs, cfg.Disks, cfg.Pattern.Procs = 4, 4, 4
	cfg.Pattern.TotalBlocks = 120
	cfg.Prefetch = true
	cfg.Fault = fc
	cfg.Obs = tel
	if _, err := rapid.Run(cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := tel.Recorder().WriteTo(f); err != nil {
		t.Fatal(err)
	}
}
