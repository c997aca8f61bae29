package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from current output")

// small is a fast, fully deterministic configuration shared by the
// run tests.
var small = []string{"-procs", "4", "-blocks", "64", "-perproc", "16", "-seed", "7"}

func runCmd(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errb strings.Builder
	err = run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestBadFlagValues(t *testing.T) {
	for _, args := range [][]string{
		{"-pattern", "bogus"},
		{"-sync", "sometimes"},
		{"-predictor", "psychic"},
		{"-procs", "twenty"},
		{"-nosuchflag"},
	} {
		if _, _, err := runCmd(t, args...); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// A millisecond flag refuses a value no run can take with an error
	// naming the flag, rather than panicking in sim.Millis or running
	// with a wrapped or silently replaced duration.
	rack := []string{"-racks", "2"}
	for _, c := range []struct {
		flag  string
		extra []string
	}{
		{"-minpf", nil}, {"-disk-kill-at", nil}, {"-proc-kill-at", nil},
		{"-barrier-timeout", nil}, {"-compute", nil},
		{"-telemetry-window", []string{"-telemetry", filepath.Join(t.TempDir(), "t.json")}},
		{"-rack-kill-at", rack}, {"-rack-storm-at", rack},
		{"-rack-storm-for", rack}, {"-rack-storm-jitter", rack},
	} {
		for _, v := range []string{"-3", "NaN", "Inf", "1e300"} {
			args := append(append([]string{c.flag, v}, c.extra...), small...)
			_, _, err := runCmd(t, args...)
			if err == nil || !strings.Contains(err.Error(), "flag "+c.flag+":") {
				t.Errorf("run(%v) = %v, want an error naming %s", args, err, c.flag)
			}
		}
	}
	// A telemetry window under 1 ms and a negative sample size are
	// refused before any run starts.
	tel := []string{"-telemetry", filepath.Join(t.TempDir(), "t.json")}
	for _, c := range []struct{ flag, value string }{
		{"-telemetry-window", "0.001"}, {"-telemetry-window", "0.0001"}, {"-sample", "-5"},
	} {
		args := append(append([]string{c.flag, c.value}, tel...), small...)
		_, _, err := runCmd(t, args...)
		if err == nil || !strings.Contains(err.Error(), "flag "+c.flag+":") {
			t.Errorf("run(%v) = %v, want an error naming %s", args, err, c.flag)
		}
	}
	// A flag that only refines another is refused without it, and
	// -racks, -proc-slow, -fault-rate and the rack factors refuse values
	// a run would ignore, wrap or misread, all before any run starts.
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-sample", []string{"-sample", "4"}},
		{"-telemetry-window", []string{"-telemetry-window", "50"}},
		{"-rack-kill", []string{"-rack-kill", "rack1", "-rack-kill-at", "100"}},
		{"-rack-kill", []string{"-racks", "0", "-rack-kill", "rack1", "-rack-kill-at", "100"}},
		{"-rack-kill-at", []string{"-racks", "2", "-rack-kill-at", "100"}},
		{"-rack-kill", []string{"-racks", "2", "-rack-kill", "rack1"}},
		{"-rack-kill", []string{"-racks", "2", "-rack-kill", "rack1", "-rack-kill-at", "0"}},
		{"-rack-storm", []string{"-racks", "2", "-rack-storm", "rack0"}},
		{"-rack-straggle", []string{"-racks", "2", "-rack-straggle", "rack1"}},
		{"-rack-storm", []string{"-rack-storm", "rack0", "-rack-storm-for", "100"}},
		{"-rack-storm-factor", []string{"-racks", "2", "-rack-storm-factor", "5"}},
		{"-rack-straggle", []string{"-rack-straggle", "rack1", "-rack-straggle-rate", "1"}},
		{"-rack-straggle-rate", []string{"-racks", "2", "-rack-straggle-rate", "1"}},
		{"-racks", []string{"-racks", "-3"}},
		{"-racks", []string{"-racks", "-3", "-rack-kill", "rack1", "-rack-kill-at", "100"}},
		{"-racks", []string{"-racks", "5", "-rack-kill", "rack4", "-rack-kill-at", "100"}},
		{"-proc-slow", []string{"-proc-slow", "0.5"}},
		{"-proc-slow", []string{"-proc-slow", "NaN"}},
		{"-proc-slow", []string{"-proc-slow", "-2"}},
		{"-proc-slow", []string{"-proc-slow", "Inf"}},
		{"-proc-slow", []string{"-proc-slow", "1e300"}},
	} {
		args := append(append([]string{}, c.args...), small...)
		_, _, err := runCmd(t, args...)
		// The flag's name ends at a space or a colon, so -rack-kill
		// does not match in -rack-kill-at.
		if err == nil || !strings.Contains(err.Error(), c.flag+" ") && !strings.Contains(err.Error(), c.flag+":") {
			t.Errorf("run(%v) = %v, want a refusal naming %s", args, err, c.flag)
		}
	}
	// The fault model refuses NaN, infinite and huge parameters with an
	// error naming the field, before the run.
	for _, c := range []struct{ field, flag, value string }{
		{"ReadErrorRate", "-fault-rate", "NaN"},
		{"StormFactor", "-rack-storm-factor", "Inf"},
		{"StragglerFactor", "-rack-straggle-factor", "1e300"},
		{"StragglerRate", "-rack-straggle-rate", "NaN"},
	} {
		args := append([]string{c.flag, c.value, "-racks", "2",
			"-rack-storm", "rack0", "-rack-storm-for", "100",
			"-rack-straggle", "rack1", "-rack-straggle-rate", "1"}, small...)
		if c.flag == "-rack-straggle-rate" {
			args = append([]string{c.flag, c.value, "-racks", "2", "-rack-straggle", "rack1"}, small...)
		}
		_, _, err := runCmd(t, args...)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("run(%v) = %v, want an error naming %s", args, err, c.field)
		}
	}
	// -compute's -1 is the paper default, not an error.
	if _, _, err := runCmd(t, append([]string{"-compute", "-1"}, small...)...); err != nil {
		t.Errorf("-compute -1: %v", err)
	}
}

func TestDeterministicRun(t *testing.T) {
	args := append([]string{"-pattern", "gw", "-sync", "total", "-prefetch"}, small...)
	a, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two identical invocations diverged:\n%s\n---\n%s", a, b)
	}
	for _, want := range []string{"gw/total", "hit ratio", "total time"} {
		if !strings.Contains(strings.ToLower(a), want) {
			t.Errorf("output missing %q:\n%s", want, a)
		}
	}
}

// TestGoldenOutput pins the human-readable report for one small
// prefetching run. Regenerate deliberately with
// `go test ./cmd/rapid -run TestGoldenOutput -update`.
func TestGoldenOutput(t *testing.T) {
	args := append([]string{"-pattern", "lfp", "-sync", "each", "-prefetch", "-iobound"}, small...)
	got, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "lfp_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output diverges from golden:\n--- golden ---\n%s\n--- current ---\n%s", want, got)
	}
}

// A faulted invocation must be byte-identical across repeats (the
// fault draws are virtual-time-deterministic) and must surface the
// fault/recovery counters in its report.
func TestFaultedRunDeterministic(t *testing.T) {
	args := append([]string{"-pattern", "gw", "-prefetch", "-fault-rate", "0.05", "-fault-seed", "9"}, small...)
	a, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two identical faulted invocations diverged:\n%s\n---\n%s", a, b)
	}
	for _, want := range []string{"faults", "transient", "retries"} {
		if !strings.Contains(a, want) {
			t.Errorf("faulted output missing %q:\n%s", want, a)
		}
	}
}

// Killing a disk mid-run completes without panic or deadlock and
// reports the degraded-mode counters.
func TestDiskKillRunCompletes(t *testing.T) {
	args := append([]string{"-pattern", "gw", "-disk-kill-at", "500"}, small...)
	got, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"disks alive 3/4", "degraded"} {
		if !strings.Contains(got, want) {
			t.Errorf("kill-run output missing %q:\n%s", want, got)
		}
	}
}

// The fault flags default to a configuration that injects nothing, so
// default output carries no fault lines.
func TestDefaultOutputHasNoFaultLines(t *testing.T) {
	got, _, err := runCmd(t, append([]string{"-pattern", "gw"}, small...)...)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got, "faults") {
		t.Fatalf("clean run mentions faults:\n%s", got)
	}
}

// Inert node-fault flag values (0 and 1 both mean "healthy") must
// leave the report byte-identical to a run without the flags at all —
// the zero-value config takes the exact pre-fault code path.
func TestNodeFaultFlagsZeroValueIdentity(t *testing.T) {
	base := append([]string{"-pattern", "lfp", "-sync", "each", "-prefetch", "-iobound"}, small...)
	clean, _, err := runCmd(t, base...)
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-proc-slow", "0"},
		{"-proc-slow", "1"},
		{"-proc-kill-at", "0"},
		{"-barrier-timeout", "0"},
		{"-proc-slow", "1", "-proc-kill-at", "0", "-barrier-timeout", "0"},
	} {
		got, _, err := runCmd(t, append(append([]string{}, base...), extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		if got != clean {
			t.Fatalf("inert flags %v changed the output:\n--- clean ---\n%s\n--- flagged ---\n%s", extra, clean, got)
		}
	}
	// And the golden file itself is the same run — the zero-value
	// config is pinned against the pre-node-fault golden.
	want, err := os.ReadFile(filepath.Join("testdata", "lfp_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if clean != string(want) {
		t.Fatal("clean run diverges from the pinned golden")
	}
}

// A straggler run is deterministic and surfaces the node-fault
// counters in its report.
func TestStragglerRunDeterministic(t *testing.T) {
	args := append([]string{"-pattern", "gw", "-sync", "each", "-prefetch", "-proc-slow", "4"}, small...)
	a, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two identical straggler invocations diverged:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "node faults") {
		t.Fatalf("straggler output missing node-fault lines:\n%s", a)
	}
}

// Killing a processor mid-run with a barrier quorum timeout completes
// (no deadlock) and reports the survivor and takeover counters.
func TestProcKillRunCompletes(t *testing.T) {
	args := append([]string{"-pattern", "lfp", "-sync", "each",
		"-proc-kill-at", "400", "-barrier-timeout", "100"}, small...)
	got, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"procs alive 3/4", "quorum", "takeover"} {
		if !strings.Contains(got, want) {
			t.Errorf("proc-kill output missing %q:\n%s", want, got)
		}
	}
}

// The combined chaos invocation from the CI smoke — straggler plus a
// dead disk — completes and reports both fault layers.
func TestChaosSmokeCompletes(t *testing.T) {
	args := append([]string{"-pattern", "gw", "-sync", "each", "-prefetch",
		"-proc-slow", "4", "-disk-kill-at", "500"}, small...)
	got, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"node faults", "disks alive 3/4"} {
		if !strings.Contains(got, want) {
			t.Errorf("chaos output missing %q:\n%s", want, got)
		}
	}
}

// A correlated rack kill completes under the quorum watchdog and
// reports the degraded window and detection latency.
func TestRackKillRunCompletes(t *testing.T) {
	args := append([]string{"-pattern", "gw", "-sync", "each", "-prefetch",
		"-racks", "4", "-rack-kill", "rack2", "-rack-kill-at", "30",
		"-barrier-timeout", "20"}, small...)
	got, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if got != again {
		t.Fatal("rack-kill run is not deterministic")
	}
	for _, want := range []string{"disks alive 3/4", "procs alive 3/4", "degraded window", "detection"} {
		if !strings.Contains(got, want) {
			t.Errorf("rack-kill output missing %q:\n%s", want, got)
		}
	}
}

// Naming racks without scheduling any domain event is inert: the run
// is byte-identical to one with no domains at all.
func TestRackFlagsZeroValueIdentity(t *testing.T) {
	base := append([]string{"-pattern", "gw", "-sync", "total", "-prefetch"}, small...)
	clean, _, err := runCmd(t, base...)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runCmd(t, append(append([]string{}, base...), "-racks", "4")...)
	if err != nil {
		t.Fatal(err)
	}
	if got != clean {
		t.Fatalf("naming inert racks changed the output:\n--- clean ---\n%s\n--- racked ---\n%s", clean, got)
	}
}

// JSON output carries the node-fault counters for scripted consumers.
func TestJSONNodeFaultCounters(t *testing.T) {
	args := append([]string{"-pattern", "gw", "-sync", "each", "-proc-slow", "4", "-json"}, small...)
	got, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "{") || !strings.Contains(got, "\"AliveProcs\": 4") {
		t.Fatalf("JSON output missing node-fault counters:\n%s", got)
	}
}

func TestJSONOutput(t *testing.T) {
	args := append([]string{"-pattern", "gw", "-prefetch", "-json"}, small...)
	got, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "{") || !strings.Contains(got, "\"Cache\"") {
		t.Fatalf("unexpected JSON output:\n%s", got)
	}
}

func TestCompareMode(t *testing.T) {
	args := append([]string{"-pattern", "gw", "-compare", "-iobound"}, small...)
	got, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "prefetching: total time") {
		t.Fatalf("compare summary missing:\n%s", got)
	}
}

// -trace writes the run's span trace and -analyze prints the access
// analysis of the same recorder, which the written file reproduces.
func TestTraceAndAnalyze(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	args := append([]string{"-pattern", "gw", "-prefetch", "-trace", path, "-analyze"}, small...)
	got, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	defer f.Close()
	rec, err := obs.Read(f)
	if err != nil {
		t.Fatalf("trace file is not a span trace: %v", err)
	}
	if !strings.Contains(got, "trace:") {
		t.Fatalf("trace confirmation missing:\n%s", got)
	}
	if want := obs.Analyze(rec).String(); !strings.Contains(got, want) {
		t.Fatalf("output lacks the trace file's analysis\n%s\noutput:\n%s", want, got)
	}
}

// The full-trace flags and the telemetry flags each need the run's one
// sink, so combining them is refused; -trace and -analyze share the
// full-trace recorder.
func TestTraceAndTelemetryRefused(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-trace", filepath.Join(dir, "a.trace"), "-telemetry", filepath.Join(dir, "a.json")},
		{"-analyze", "-telemetry", filepath.Join(dir, "b.json"), "-sample", "4"},
		{"-timeline", "-telemetry", filepath.Join(dir, "c.json"), "-telemetry-window", "50"},
	} {
		_, _, err := runCmd(t, append(args, small...)...)
		if err == nil || !strings.Contains(err.Error(), "one sink") {
			t.Errorf("run(%v) = %v, want the one-sink error", args, err)
		}
	}
}

// -compare and -json print only their results, so every flag that adds
// a sink, a file or a report is refused in either mode, and no file is
// written; -compare also refuses -json.
func TestResultOnlyModesRefuseReportFlags(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "out")
	reports := [][]string{
		{"-trace", file}, {"-analyze"}, {"-timeline"},
		{"-telemetry", file}, {"-telemetry-window", "50"}, {"-sample", "4"},
		{"-procstats"}, {"-hist"},
	}
	for _, mode := range []string{"-compare", "-json"} {
		for _, flags := range reports {
			args := append(append([]string{mode}, flags...), small...)
			_, _, err := runCmd(t, args...)
			if err == nil || !strings.Contains(err.Error(), mode+" prints only its results") ||
				!strings.Contains(err.Error(), flags[0]) {
				t.Errorf("run(%v) = %v, want %s refusing %s", args, err, mode, flags[0])
			}
			if _, err := os.Stat(file); err == nil {
				t.Fatalf("run(%v) wrote %s", args, file)
			}
		}
	}
	_, _, err := runCmd(t, append([]string{"-compare", "-json", "-trace", file, "-hist"}, small...)...)
	if err == nil || !strings.Contains(err.Error(), "with -hist, -json, -trace") {
		t.Errorf("-compare -json -trace -hist = %v, want all three flags named", err)
	}
}

func TestObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	spans := filepath.Join(dir, "run.json")
	args := append([]string{"-pattern", "gw", "-sync", "each", "-prefetch",
		"-trace", spans, "-timeline"}, small...)
	got, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Fatalf("%s not written: %v", spans, err)
	}
	for _, want := range []string{"trace:", "timeline", "legend:", "proc0"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}
