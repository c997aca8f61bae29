package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from current output")

// TestGoldenOutputPinned pins the complete rendered evaluation — the
// full TestScale suite table, aggregate summary, all nine suite
// figures, a computation sweep, and the 23-claim audit — against a
// checked-in golden file. Where TestSerialParallelEquivalence proves
// worker counts agree with each other, this test proves the output
// agrees with what the repository has always produced: any kernel or
// engine change that perturbs event ordering, timing, or statistics
// shows up as a byte diff here. Regenerate deliberately with
// `go test ./internal/experiment -run TestGoldenOutputPinned -update`.
func TestGoldenOutputPinned(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("golden harness skipped in -short mode")
	}
	got := renderEverything(1)
	path := filepath.Join("testdata", "equivalence_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %d bytes", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gLines := strings.Split(got, "\n")
	wLines := strings.Split(string(want), "\n")
	n := len(gLines)
	if len(wLines) < n {
		n = len(wLines)
	}
	for i := 0; i < n; i++ {
		if gLines[i] != wLines[i] {
			t.Fatalf("output diverges from pinned golden at line %d:\ngolden:  %q\ncurrent: %q",
				i+1, wLines[i], gLines[i])
		}
	}
	t.Fatalf("output length differs: golden %d lines, current %d lines", len(wLines), len(gLines))
}
