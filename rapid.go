// Package rapid is a Go reproduction of the RAPID Transit file system
// testbed from Kotz & Ellis, "Prefetching in File Systems for MIMD
// Multiprocessors" (ICPP 1989).
//
// The testbed simulates a shared-memory MIMD multiprocessor (20
// processors in the paper) running one parallel computation: one user
// process per node reads a file that is interleaved round-robin across
// parallel independent disks, through a shared block buffer cache. When
// prefetching is enabled, the file system uses the processes' idle
// times (synchronization waits, disk waits) to read ahead according to
// per-access-pattern policies. The package measures everything the
// paper measures: total execution time, block read times, hit ratios
// (including "unready" hits whose I/O is still in flight), hit-wait
// times, disk response times, synchronization waits, prefetch action
// times and overruns.
//
// Quick start:
//
//	cfg := rapid.DefaultConfig(rapid.GW) // global whole-file pattern
//	cfg.Prefetch = true
//	result := rapid.MustRun(cfg)
//	fmt.Println(result)
//
// The experiment harness reproduces every figure of the paper's
// evaluation:
//
//	suite := rapid.RunSuite(rapid.PaperScale())
//	fmt.Println(suite.Fig8TotalTime().Render(rapid.RenderOptions{}))
//
// All simulation is deterministic: the same Config always produces the
// same Result.
package rapid

import (
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/interleave"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/predict"
	"repro/internal/sim"
)

// Re-exported core types. See the internal packages for full
// documentation of each method.
type (
	// Config describes one experimental run of the testbed.
	Config = core.Config
	// Result carries every measure the paper records for one run.
	Result = core.Result
	// ProcStats is the per-processor breakdown within a Result.
	ProcStats = core.ProcStats
	// Event is one trace record of file system activity.
	Event = core.Event
	// EventKind classifies trace events.
	EventKind = core.EventKind

	// PatternKind identifies one of the six parallel file access
	// patterns (LFP, LRP, LW, GFP, GRP, GW).
	PatternKind = pattern.Kind
	// PatternConfig parameterizes access pattern generation.
	PatternConfig = pattern.Config
	// Pattern is a fully generated workload access pattern.
	Pattern = pattern.Pattern

	// SyncStyle is one of the paper's four synchronization styles.
	SyncStyle = barrier.Style

	// PredictorKind selects how prefetch candidates are chosen: the
	// paper's oracle policies or an on-the-fly predictor.
	PredictorKind = predict.Kind

	// LayoutStrategy selects how file blocks are placed on the disks.
	LayoutStrategy = interleave.Strategy

	// DiskSchedPolicy selects the order a disk serves its queue.
	DiskSchedPolicy = disk.SchedPolicy

	// MemoryModel is the NUMA overhead cost model charged for file
	// system operations.
	MemoryModel = memory.Model
	// MemoryCost is the cost of one class of file system operation:
	// Base + PerActive × (other processors executing FS code).
	MemoryCost = memory.Cost

	// Time is an instant of virtual time (µs).
	Time = sim.Time
	// Duration is a span of virtual time (µs).
	Duration = sim.Duration
	// Kernel is the deterministic discrete-event simulation kernel;
	// user code drives the FileSystem API from processes spawned on it.
	Kernel = sim.Kernel
	// Proc is a simulated process on a Kernel.
	Proc = sim.Proc

	// FileSystem is the reusable Bridge-style parallel file system
	// built on the library's substrates (multiple interleaved files,
	// shared cache, sequential readahead).
	FileSystem = fs.FileSystem
	// FSOptions configures a FileSystem.
	FSOptions = fs.Options
	// File is a named interleaved file within a FileSystem.
	File = fs.File
	// FileHandle is a per-client read session on a File.
	FileHandle = fs.Handle
	// DiskProfile is a disk service-time model (fixed access plus an
	// optional seek component).
	DiskProfile = disk.Profile

	// FaultConfig describes the deterministic fault model (transient
	// errors, latency spikes, stuck requests, disk death) injected
	// under the disk layer. The zero value injects nothing.
	FaultConfig = fault.Config
	// RetryPolicy is the capped-exponential virtual-time backoff
	// schedule used to retry failed reads and write-backs.
	RetryPolicy = fault.RetryPolicy
	// NodeFaultConfig describes the node-level fault model (persistent
	// stragglers, transient stalls, processor kill with work takeover,
	// barrier quorum timeouts, cache capacity squeeze, prefetch
	// backpressure). The zero value injects nothing.
	NodeFaultConfig = fault.NodeConfig
	// DomainConfig groups disks and nodes into named failure domains
	// (racks/zones) with correlated events: whole-domain kill at a
	// virtual time, domain-wide latency storms, straggler spread. The
	// zero value injects nothing.
	DomainConfig = fault.DomainConfig
	// FailureDomain is one named contiguous slice of disks and nodes
	// within a DomainConfig.
	FailureDomain = fault.Domain

	// Figure is plot data for one reproduced figure.
	Figure = metrics.Figure
	// Series is one scatter cloud or line within a Figure.
	Series = metrics.Series
	// RenderOptions controls ASCII rendering of figures.
	RenderOptions = metrics.RenderOptions
	// Summary carries count/mean/min/max/stddev of a measured quantity.
	Summary = metrics.Summary
	// Sample is a retained set of observations with quantiles and CDFs.
	Sample = metrics.Sample

	// SuiteOptions scales the experiment harness.
	SuiteOptions = experiment.Options
	// Suite is the full factorial experiment of the paper.
	Suite = experiment.Suite
	// SuitePair is one suite cell, run with and without prefetching.
	SuitePair = experiment.Pair
	// SuiteSummary aggregates a suite into the paper's headline numbers.
	SuiteSummary = experiment.Summary

	// ScaleOptions configures the cluster-scale sweep (100k-1M nodes on
	// the compact engine).
	ScaleOptions = experiment.ScaleOptions
	// ScaleResult carries the cluster-scale sweep's rows and figures.
	ScaleResult = experiment.ScaleResult
)

// The six parallel file access patterns (§IV-B), plus the hybrid
// extension (disjoint process subsets each following a pure local
// pattern; configure via PatternConfig.Hybrid).
const (
	LFP = pattern.LFP // local fixed-length portions
	LRP = pattern.LRP // local random portions
	LW  = pattern.LW  // local whole file
	GFP = pattern.GFP // global fixed portions
	GRP = pattern.GRP // global random portions
	GW  = pattern.GW  // global whole file
	HYB = pattern.HYB // hybrid of local patterns (extension)
)

// The four synchronization styles (§IV-B).
const (
	SyncNone       = barrier.None
	SyncEveryNEach = barrier.EveryNPerProc
	SyncEveryNAll  = barrier.EveryNTotal
	SyncPerPortion = barrier.PerPortion
)

// Block placement strategies over the parallel disks.
const (
	LayoutRoundRobin = interleave.RoundRobin // the paper's interleaving
	LayoutSegmented  = interleave.Segmented  // contiguous runs per disk
	LayoutHashed     = interleave.Hashed     // hashed declustering
)

// Disk queue scheduling policies.
const (
	DiskFIFO = disk.FIFO // the paper's model
	DiskSSTF = disk.SSTF // shortest seek time first
	DiskSCAN = disk.SCAN // elevator sweeps
)

// Prefetch candidate sources: the paper's oracle reference-string
// policies (the study's "optimistic" assumption) and the on-the-fly
// predictors that observe only the demand stream (the paper's §VI
// future work).
const (
	PredictOracle = predict.Oracle
	PredictOBL    = predict.OBL  // one-block lookahead
	PredictSEQ    = predict.SEQ  // adaptive per-process run detection
	PredictGAPS   = predict.GAPS // global sequentiality detection
)

// Virtual time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// PatternKinds lists the six access patterns in the paper's order.
var PatternKinds = pattern.Kinds

// SyncStyles lists the four synchronization styles.
var SyncStyles = barrier.Styles

// DefaultConfig returns the paper's base parameters (§IV-D) for the
// given access pattern, with prefetching off.
func DefaultConfig(kind PatternKind) Config { return core.DefaultConfig(kind) }

// Run executes one experiment.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// MustRun executes one experiment, panicking on configuration errors.
func MustRun(cfg Config) *Result { return core.MustRun(cfg) }

// ScaleConfig returns a cluster-scale configuration: nodes processor
// nodes over disks disks on the compact (goroutine-free) engine, with
// the uncontended memory model and two prefetch buffers per node. The
// base for 100k-1M node runs; see RunScaleSweep for the full study.
func ScaleConfig(nodes, disks int, prefetch bool) Config {
	return core.ScaleConfig(nodes, disks, prefetch)
}

// PaperScale returns the paper's full-size experiment options.
func PaperScale() SuiteOptions { return experiment.PaperScale() }

// TestScale returns reduced-size experiment options for quick runs.
func TestScale() SuiteOptions { return experiment.TestScale() }

// RunSuite executes the paper's full factorial suite (§IV-B): six
// access patterns × four synchronization styles × two I/O intensities,
// each with and without prefetching.
func RunSuite(opts SuiteOptions) *Suite { return experiment.RunSuite(opts) }

// ComputeSweep reproduces the §V-C computation-balance study (Fig. 12).
func ComputeSweep(opts SuiteOptions, meansMS []int) *experiment.ComputeSweepResult {
	return experiment.ComputeSweep(opts, meansMS)
}

// LeadSweep reproduces the minimum-prefetch-lead study (Figs. 13–16).
func LeadSweep(opts SuiteOptions, leads []int) *experiment.LeadSweepResult {
	return experiment.LeadSweep(opts, leads)
}

// MinPrefetchTimeSweep reproduces the §V-D minimum-prefetch-time study.
func MinPrefetchTimeSweep(opts SuiteOptions, thresholdsMS []int) *experiment.MinPrefetchTimeResult {
	return experiment.MinPrefetchTimeSweep(opts, thresholdsMS)
}

// BufferCountSweep reproduces the §V-F prefetch-buffer-count study.
func BufferCountSweep(opts SuiteOptions, counts []int) *Figure {
	return experiment.BufferCountSweep(opts, counts)
}

// ScalabilitySweep runs the §VI scalability study: machine sizes with
// constant work per processor.
func ScalabilitySweep(opts SuiteOptions, sizes []int) *experiment.ScalabilityResult {
	return experiment.ScalabilitySweep(opts, sizes)
}

// RunLayoutStudy compares block-placement strategies under a
// seek-charging disk model (§VI "variations on file system
// organization").
func RunLayoutStudy(opts SuiteOptions) *experiment.LayoutStudy {
	return experiment.RunLayoutStudy(opts)
}

// RunSchedStudy compares disk queue scheduling policies under hashed
// placement and a seek-charging disk model.
func RunSchedStudy(opts SuiteOptions) *experiment.SchedStudy {
	return experiment.RunSchedStudy(opts)
}

// VerifyClaims runs the paper's experiments at the given scale and
// checks every quantitative claim from its §V text, returning a
// PASS/FAIL record per claim. Deterministic for a given options value.
func VerifyClaims(opts SuiteOptions) *experiment.Verification {
	return experiment.Verify(opts)
}

// RunFaultSweep measures the base gw cell under a sweep of injected
// transient-fault rates, with and without prefetching — the robustness
// extension study.
func RunFaultSweep(opts SuiteOptions, rates []float64) *experiment.FaultSweepResult {
	return experiment.RunFaultSweep(opts, rates)
}

// DefaultFaultRates is the standard fault-rate sweep (0 through 10%).
func DefaultFaultRates() []float64 { return experiment.DefaultFaultRates() }

// DefaultScaleSizes is the cluster-scale node sweep (100k-1M nodes),
// two decades past the paper's 20 processors.
func DefaultScaleSizes() []int { return experiment.DefaultScaleSizes() }

// RunScaleSweep runs the cluster-scale study on the compact node
// engine: total time with and without prefetching across the node
// sweep, plus the disk-contention knee study (Figs. 7/8 extrapolation).
func RunScaleSweep(opts ScaleOptions) *ScaleResult {
	return experiment.RunScaleSweep(opts)
}

// VerifyScaleClaims machine-checks the cluster-scale claims S1-S4
// (determinism, persistent prefetch benefit, contention knee,
// throughput and memory budget) and returns the sweep they ran on.
func VerifyScaleClaims(opts ScaleOptions) (*experiment.Verification, *ScaleResult) {
	return experiment.VerifyScaleClaims(opts)
}

// VerifyChaosClaims machine-checks the cluster-chaos claims C1-C5
// (chaos determinism across repetition, zero-value inertness against
// the clean scale cell, quorum release beating a rack-kill deadlock,
// prefetch masking injected fault latency at scale, and proportional
// degradation under correlated domain kills) and returns a
// chaos-augmented sweep.
func VerifyChaosClaims(opts ScaleOptions) (*experiment.Verification, *ScaleResult) {
	return experiment.VerifyChaosClaims(opts)
}

// SplitDomains partitions disks and nodes into count equal named
// failure domains ("<prefix>0" ... "<prefix>N-1"), remainders landing
// in the last domain.
func SplitDomains(prefix string, disks, nodes, count int) []FailureDomain {
	return fault.SplitDomains(prefix, disks, nodes, count)
}

// VerifyFaultClaims machine-checks the robustness extension's claims
// (determinism, clean-path identity, fault cost, prefetch masking, and
// degraded-mode completion), separately from the paper's 23-claim
// audit.
func VerifyFaultClaims(opts SuiteOptions) *experiment.Verification {
	return experiment.VerifyFaultClaims(opts)
}

// RunNodeFaultSweep measures the base gw cell with one persistent
// straggler at a sweep of slowdown factors, with and without
// prefetching — the node-level robustness extension study.
func RunNodeFaultSweep(opts SuiteOptions, factors []float64) *experiment.NodeFaultSweepResult {
	return experiment.RunNodeFaultSweep(opts, factors)
}

// DefaultStragglerFactors is the standard straggler sweep (1× to 8×).
func DefaultStragglerFactors() []float64 { return experiment.DefaultStragglerFactors() }

// VerifyNodeFaultClaims machine-checks the node-level fault tolerance
// claims (chaos determinism, zero-config identity, barrier quorum
// release beating deadlock, straggler cost monotonicity, and prefetch
// masking of slow nodes), separately from the disk-fault audit.
func VerifyNodeFaultClaims(opts SuiteOptions) *experiment.Verification {
	return experiment.VerifyNodeFaultClaims(opts)
}

// RunHybridStudy measures a hybrid workload (half lfp, half lw) against
// its pure components — the §IV-B combination the paper expects not to
// matter much.
func RunHybridStudy(opts SuiteOptions) *experiment.HybridResult {
	return experiment.RunHybridStudy(opts)
}

// RunPredictorStudy compares the oracle policies against the
// on-the-fly predictors across all six access patterns.
func RunPredictorStudy(opts SuiteOptions) *experiment.PredictorStudy {
	return experiment.RunPredictorStudy(opts)
}

// ParsePredictorKind converts a predictor name ("oracle", "obl", "seq",
// "gaps") to a PredictorKind.
func ParsePredictorKind(s string) (PredictorKind, error) { return predict.Parse(s) }

// Fig1Motivation runs the demonstration of Fig. 1: uneven
// prefetching benefits reduce the average read time without reducing
// the completion time.
func Fig1Motivation(seed uint64) *experiment.MotivationResult {
	return experiment.Fig1Motivation(seed)
}

// GeneratePattern builds the reference strings for a pattern
// configuration.
func GeneratePattern(cfg PatternConfig) (*Pattern, error) { return pattern.Generate(cfg) }

// DefaultPattern returns the paper's base pattern configuration for the
// given kind.
func DefaultPattern(kind PatternKind) PatternConfig { return pattern.Defaults(kind) }

// ParsePatternKind converts a paper abbreviation ("lfp", "gw", ...) to a
// PatternKind.
func ParsePatternKind(s string) (PatternKind, error) { return pattern.Parse(s) }

// ParseSyncStyle converts a style name ("each", "total", "portion",
// "none") to a SyncStyle.
func ParseSyncStyle(s string) (SyncStyle, error) { return barrier.Parse(s) }

// Millis constructs a Duration from milliseconds.
func Millis(ms float64) Duration { return sim.Millis(ms) }

// NewKernel returns a fresh simulation kernel with the clock at zero.
func NewKernel() *Kernel { return sim.NewKernel() }

// NewFileSystem creates a parallel file system on the kernel. It
// returns fs.Options.Validate's typed error for nonsensical options.
func NewFileSystem(k *Kernel, opts FSOptions) (*FileSystem, error) { return fs.New(k, opts) }

// MustNewFileSystem is NewFileSystem for known-good options; it panics
// on a validation error.
func MustNewFileSystem(k *Kernel, opts FSOptions) *FileSystem { return fs.MustNew(k, opts) }

// FixedDisk returns a disk profile with the paper's constant service
// time.
func FixedDisk(access Duration) DiskProfile { return disk.Fixed(access) }

// DefaultRetry returns the standard fault-recovery backoff schedule:
// unlimited attempts, 5 ms doubling to a 160 ms cap, in virtual time.
func DefaultRetry() RetryPolicy { return fault.DefaultRetry() }

// DefaultMemory returns the NUMA cost model calibrated against the
// paper's reported overheads.
func DefaultMemory() MemoryModel { return memory.Default() }

// FreeMemory returns a cost model that charges nothing for file system
// work — the "free prefetching" ablation, which bounds how much of the
// paper's negative results come from overhead alone.
func FreeMemory() MemoryModel { return memory.Free() }

// PercentReduction returns 100*(without-with)/without.
func PercentReduction(without, with float64) float64 {
	return metrics.PercentReduction(without, with)
}
