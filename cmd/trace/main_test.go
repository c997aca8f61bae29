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
	spans := record(t, dir, "pf.spans", true)

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

func TestPerfettoExportAndVerify(t *testing.T) {
	dir := t.TempDir()
	spans := record(t, dir, "pf.spans", true)
	jsonPath := filepath.Join(dir, "pf.json")
	if _, err := runCmd(t, "perfetto", "-o", jsonPath, spans); err != nil {
		t.Fatal(err)
	}
	// Both the exported JSON and the raw span file validate.
	for _, target := range []string{jsonPath, spans} {
		out, err := runCmd(t, "verify", target)
		if err != nil {
			t.Fatalf("verify %s: %v", target, err)
		}
		if !strings.Contains(out, "ok:") {
			t.Fatalf("verify output: %q", out)
		}
	}
}

func TestDiffPrefetchOnOff(t *testing.T) {
	dir := t.TempDir()
	pf := record(t, dir, "pf.spans", true)
	nopf := record(t, dir, "nopf.spans", false)
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
	a := record(t, dir, "a.spans", true)
	b := record(t, dir, "b.spans", true)
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
// trace from a newer build must be a loud, diagnosable failure, not a
// silently shorter accounting.
func TestMalformedTraceErrors(t *testing.T) {
	dir := t.TempDir()
	good, err := os.ReadFile(record(t, dir, "good.spans", false))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(good), "\n"), "\n")
	if len(lines) < 10 || !strings.HasPrefix(lines[len(lines)-1], "end ") {
		t.Fatalf("recorded trace unusable as fixture: %d lines", len(lines))
	}

	cases := []struct {
		name    string
		content string
		want    error // nil: any error will do
	}{
		{"empty", "", obs.ErrNotTrace},
		{"not-a-trace", "hello world\nspan 1 2 3\n", obs.ErrNotTrace},
		{"future-version", "# rapidtrace v2\nspan proc/0 0 0 10 compute 0\nend 1 0\n",
			obs.ErrTraceVersion},
		{"missing-trailer", strings.Join(lines[:len(lines)-1], "\n") + "\n",
			obs.ErrTraceTruncated},
		{"cut-mid-stream", strings.Join(lines[:len(lines)/2], "\n") + "\n",
			obs.ErrTraceTruncated},
		{"count-mismatch", strings.Join(lines[:len(lines)-1], "\n") + "\nend 1 0\n",
			obs.ErrTraceTruncated},
		{"garbage-record", lines[0] + "\nspan what\n", nil},
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
// a telemetry snapshot end to end through the CLI: a snapshot written
// by rapid -telemetry must round-trip into a readable report, and a
// non-snapshot file must be rejected.
func TestTimeseriesSubcommand(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "run.telemetry.json")
	// cmd/trace has no telemetry-producing subcommand; synthesize the
	// snapshot through the library exactly as cmd/rapid does.
	writeTelemetrySnapshot(t, snap)

	out, err := runCmd(t, "timeseries", snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"windows of", "events/sec", "hit rate", "start ms", "queue p95"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeseries output missing %q:\n%s", want, out)
		}
	}

	bogus := filepath.Join(dir, "bogus.json")
	if err := os.WriteFile(bogus, []byte(`{"windowMicros": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "timeseries", bogus); err == nil {
		t.Fatal("timeseries accepted a snapshot with no window width")
	}
	if _, err := runCmd(t, "timeseries"); err == nil {
		t.Fatal("timeseries accepted zero file arguments")
	}
}

// TestTimeseriesFaultView: a snapshot with fault activity grows the
// fault sparklines and table columns; a fault-free snapshot renders
// without them (the pre-chaos layout, byte-stable).
func TestTimeseriesFaultView(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.telemetry.json")
	writeTelemetrySnapshot(t, clean)
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
	tel := telemetry.New(telemetry.Config{Window: 50_000, Nodes: 4})
	cfg := rapid.DefaultConfig(rapid.GW)
	cfg.Procs, cfg.Disks, cfg.Pattern.Procs = 4, 4, 4
	cfg.Pattern.TotalBlocks = 120
	cfg.Prefetch = true
	cfg.Fault = rapid.FaultConfig{Seed: 9, ReadErrorRate: 0.2}
	cfg.Obs = tel
	if _, err := rapid.Run(cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.Snapshot().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
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

// writeTelemetrySnapshot runs a small experiment with the windowed
// telemetry sink attached and writes its snapshot JSON to path.
func writeTelemetrySnapshot(t *testing.T, path string) {
	t.Helper()
	tel := telemetry.New(telemetry.Config{Window: 50_000, Nodes: 4})
	cfg := rapid.DefaultConfig(rapid.GW)
	cfg.Procs, cfg.Disks, cfg.Pattern.Procs = 4, 4, 4
	cfg.Pattern.TotalBlocks = 120
	cfg.Prefetch = true
	cfg.Obs = tel
	if _, err := rapid.Run(cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tel.Snapshot().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
}
