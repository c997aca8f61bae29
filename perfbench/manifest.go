package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// manifestInfo says what a result was measured on. Two results are
// comparable when their comparable_key fields are equal: same host
// fingerprint, benchmark code, workload, size, parameters and run
// length. The seed and the program's own source may differ — comparing
// commits across seeds is what the benchmark is for.
type manifestInfo struct {
	Workload      string  `json:"workload"`
	Size          string  `json:"size"`
	Params        params  `json:"params"`
	Seed          uint64  `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Trace         bool    `json:"trace"`
	Host          host    `json:"host"`
	GitRev        string  `json:"git_rev"`
	SourceSHA256  string  `json:"source_sha256"`
	BenchSHA256   string  `json:"bench_sha256"`
	ComparableKey string  `json:"comparable_key"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPUModel   string `json:"cpu_model"`
}

// manifest fingerprints the host and digests the sources under the
// working directory, which is the repository root.
func manifest(cfg config) (*manifestInfo, error) {
	m := &manifestInfo{
		Workload: cfg.name, Size: cfg.size, Params: cfg.params, Seed: cfg.seed,
		Seconds: cfg.seconds, Trace: cfg.trace,
		Host: host{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
			CPUModel:   cpuModel(),
		},
		GitRev: gitRev(),
	}
	src, bench := sha256.New(), sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		h := src
		if strings.HasPrefix(path, "perfbench"+string(filepath.Separator)) {
			h = bench
		} else if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.SourceSHA256 = hex.EncodeToString(src.Sum(nil))
	m.BenchSHA256 = hex.EncodeToString(bench.Sum(nil))
	key, err := json.Marshal([]any{m.Host, m.BenchSHA256, cfg.name, cfg.size, cfg.params, cfg.seconds})
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(key)
	m.ComparableKey = hex.EncodeToString(sum[:8])
	return m, nil
}

// cpuModel reads the processor model name, or returns "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev returns the commit the checkout's HEAD names, or "none" when
// the sources are not a git checkout.
func gitRev() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return ref
}
