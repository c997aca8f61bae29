package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// layers are the per-layer CPU buckets, in report order: the repository
// modules; two buckets for samples made of runtime frames alone,
// runtime.gc (collection and allocation) and runtime.sched (goroutine
// scheduling and the rest); and other, for samples with frames outside
// the runtime but in none of the modules listed (the experiment package,
// the runner, the benchmark itself, the profiler).
var layers = []string{
	"sim", "core", "cache", "prefetch", "disk", "fault", "barrier", "fs",
	"interleave", "pattern", "metrics", "obs",
	"runtime.gc", "runtime.sched", "other",
}

const repoPrefix = "repro/internal/"

// gcFrames mark a runtime stack as garbage collection or allocation.
var gcFrames = []string{
	"runtime.gc", "runtime.GC", "runtime._GC", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
	"runtime.sweepone", "runtime.mallocgc", "runtime.(*mheap)",
	"runtime.(*mcache)", "runtime.(*mspan)", "runtime.(*gcWork)",
}

// layerOf charges one stack, innermost frame first, to a layer: the
// innermost frame of a listed repository module wins, so a map lookup
// inside cache counts as cache.
func layerOf(frames []string) string {
	other := false
	for _, f := range frames {
		if pkg, ok := strings.CutPrefix(f, repoPrefix); ok {
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range layers[:12] {
				if pkg == l {
					return l
				}
			}
			other = true
		} else if !strings.HasPrefix(f, "runtime.") {
			other = true
		}
	}
	if other {
		return "other"
	}
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.sched"
}

// foldProfiles merges CPU profiles, as runtime/pprof writes them, with
// the toolchain's `go tool pprof -traces` and adds each sample's CPU
// time to its layer's total.
func foldProfiles(paths []string, into map[string]int64) error {
	args := append([]string{"tool", "pprof", "-symbolize=none", "-traces"}, paths...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTraces(out, into)
}

// foldTraces reads the output of `go tool pprof -traces`: a header, then
// one block per sample between separator lines, holding the sample's
// labels, a line with its CPU time and innermost frame, and lines with
// the outer frames.
func foldTraces(out []byte, into map[string]int64) error {
	var (
		value  time.Duration
		frames []string
		inBody bool
	)
	flush := func() {
		if len(frames) > 0 {
			into[layerOf(frames)] += int64(value)
		}
		value, frames = 0, frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inBody = true
		case !inBody || len(line) <= 11 || strings.HasSuffix(strings.TrimSpace(line[:11]), ":"):
			// Header, or a profiler label such as the runner's cfg.
		case strings.TrimSpace(line[:11]) != "":
			// The value column is right-aligned in the first 11 columns.
			d, err := time.ParseDuration(strings.TrimSpace(line[:11]))
			if err != nil {
				return fmt.Errorf("go tool pprof: sample value in %q: %v", line, err)
			}
			value = d
			fallthrough
		default:
			frames = append(frames, strings.TrimSuffix(strings.TrimSpace(line[11:]), " (inline)"))
		}
	}
	flush()
	return sc.Err()
}
