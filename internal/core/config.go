// Package core implements the RAPID Transit testbed engine: simulated
// processors running a synthetic parallel application over the
// interleaved file system, with the shared block cache, idle-time
// prefetching, synchronization, and the full measurement set of the
// paper (§IV-C).
package core

import (
	"fmt"
	"math"

	"repro/internal/barrier"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/interleave"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/predict"
	"repro/internal/sim"
)

// Config fully describes one experimental run.
type Config struct {
	// Procs is the number of processors, one user process each.
	Procs int
	// Disks is the number of parallel independent disks.
	Disks int
	// BlockSize is the file block size in bytes (informational).
	BlockSize int
	// DiskAccess is the fixed physical disk access time.
	DiskAccess sim.Duration

	// Pattern selects and parameterizes the file access pattern.
	Pattern pattern.Config

	// Layout is the block-placement strategy over the disks
	// (round-robin interleaving in the paper).
	Layout interleave.Strategy
	// DiskSeekPerBlock, when positive, adds service time per physical
	// block of head travel between consecutive requests on a disk, and
	// DiskMaxSeek caps that component. Zero reproduces the paper's
	// fixed access time.
	DiskSeekPerBlock sim.Duration
	DiskMaxSeek      sim.Duration
	// DiskSched is the per-disk queue scheduling policy (FIFO in the
	// paper; SSTF/SCAN matter only with a seek model).
	DiskSched disk.SchedPolicy

	// Sync is the synchronization style.
	Sync barrier.Style
	// SyncEveryPerProc is N for the every-N-blocks-per-process style.
	SyncEveryPerProc int
	// SyncEveryTotal is N for the every-N-blocks-total style.
	SyncEveryTotal int

	// ComputeMean is the mean of the exponentially distributed
	// computation delay added after each block read; zero makes the
	// program fully I/O bound.
	ComputeMean sim.Duration

	// Prefetch enables the prefetching file system.
	Prefetch bool
	// Predictor selects how prefetch candidates are chosen: the paper's
	// oracle reference-string policies (predict.Oracle, the default) or
	// one of the on-the-fly predictors that observe only the demand
	// stream and can mispredict (predict.OBL, predict.SEQ,
	// predict.GAPS).
	Predictor predict.Kind
	// PrefetchBuffersPerProc is the number of prefetch buffers added per
	// processor node (3 in the paper).
	PrefetchBuffersPerProc int
	// PerNodePrefetchLimit, when true, enforces the prefetch-buffer
	// budget strictly per node instead of as a shared global pool.
	PerNodePrefetchLimit bool
	// RUSetSize is the per-processor recently-used set size (1 in the
	// paper, emulating toss-immediately).
	RUSetSize int
	// Lead is the minimum prefetch lead in reference-string positions
	// (§V-E); zero reproduces the base strategy.
	Lead int
	// MinPrefetchTime, when positive, suppresses starting a prefetch
	// action unless at least this much estimated idle time remains
	// (§V-D).
	MinPrefetchTime sim.Duration

	// Memory is the NUMA overhead cost model.
	Memory memory.Model

	// Fault configures deterministic disk fault injection. The zero
	// value injects nothing and leaves every run byte-identical to the
	// fault-free testbed.
	Fault fault.Config
	// Retry is the virtual-time retry/backoff policy for failed demand
	// reads. The zero value with faults enabled selects
	// fault.DefaultRetry (unlimited attempts); a bounded MaxAttempts
	// makes read exhaustion fail-stop, since the synthetic application
	// has no error path.
	Retry fault.RetryPolicy

	// NodeFault configures deterministic processor-level fault
	// injection: persistent stragglers, transient stalls, a processor
	// kill with work takeover, barrier quorum timeouts, cache-capacity
	// squeezes, and prefetch backpressure. The zero value injects
	// nothing and leaves every run byte-identical to the node-fault-free
	// testbed.
	NodeFault fault.NodeConfig

	// Domain groups disks and nodes into named failure domains
	// (racks, zones) and schedules correlated events against them: a
	// whole-domain kill at a virtual time, a domain-wide latency
	// storm, straggler spread within a domain. The zero value injects
	// nothing and leaves every run byte-identical to the domain-free
	// testbed.
	Domain fault.DomainConfig

	// AuditEvery, when positive, runs the runtime invariant auditor:
	// every interval of virtual time, a sweep checks the kernel, cache,
	// disk queues, and barrier for internal consistency and panics with
	// the named invariant on a violation. Sweeps only read, so audited
	// runs produce the same Result as unaudited ones (only the
	// observability kernel-event counts differ).
	AuditEvery sim.Duration

	// CompactNodes selects the goroutine-free compact engine: each
	// processor runs as an event-driven state machine in kernel context
	// instead of a spawned goroutine, cutting per-node memory from a
	// goroutine stack (2 KB minimum) to a flat record well under 1 KB —
	// the representation that makes 100k–1M node runs fit in memory.
	// Results are deterministic (same seed and config give the same
	// bytes) but not byte-identical to the goroutine engine:
	// same-instant work interleaves differently, so contention counts
	// and hence exact timings can differ. The full fault surface —
	// disk faults with retry/backoff, node faults, and failure domains
	// — is supported; what is not appears in compactCapabilities (the
	// single source of truth), and Validate rejects those
	// combinations.
	CompactNodes bool `json:"compactNodes,omitempty"`

	// Seed drives computation-delay randomness (and, via Pattern.Seed,
	// random portion geometry).
	Seed uint64

	// Trace, if non-nil, receives an event for every file system action.
	// It is excluded from JSON encodings of the Config.
	Trace func(Event) `json:"-"`

	// Obs, if non-nil, receives typed spans and counters from every
	// subsystem of the run (see internal/obs). Excluded from JSON
	// encodings; nil costs one branch per emission site.
	Obs obs.Sink `json:"-"`
}

// DefaultConfig returns the paper's base parameters (§IV-D) for the
// given access pattern, with prefetching off and balanced computation.
func DefaultConfig(kind pattern.Kind) Config {
	return Config{
		Procs:                  20,
		Disks:                  20,
		BlockSize:              1024,
		DiskAccess:             30 * sim.Millisecond,
		Pattern:                pattern.Defaults(kind),
		Sync:                   barrier.None,
		SyncEveryPerProc:       10,
		SyncEveryTotal:         200,
		ComputeMean:            BalancedComputeMean(kind),
		Prefetch:               false,
		PrefetchBuffersPerProc: 3,
		RUSetSize:              1,
		Memory:                 memory.Default(),
		Seed:                   1,
	}
}

// BalancedComputeMean returns the per-block computation mean the paper
// used to balance I/O and computation: 30 ms, except 10 ms for the lw
// pattern whose strong interprocess locality already reduces I/O time.
func BalancedComputeMean(kind pattern.Kind) sim.Duration {
	if kind == pattern.LW {
		return 10 * sim.Millisecond
	}
	return 30 * sim.Millisecond
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	if c.Procs <= 0 {
		return fmt.Errorf("core: Procs must be positive, got %d", c.Procs)
	}
	if c.Disks <= 0 {
		return fmt.Errorf("core: Disks must be positive, got %d", c.Disks)
	}
	if c.DiskAccess <= 0 {
		return fmt.Errorf("core: DiskAccess must be positive, got %v", c.DiskAccess)
	}
	if c.RUSetSize <= 0 {
		return fmt.Errorf("core: RUSetSize must be positive, got %d", c.RUSetSize)
	}
	if c.Prefetch && c.PrefetchBuffersPerProc <= 0 {
		return fmt.Errorf("core: prefetching needs PrefetchBuffersPerProc > 0")
	}
	if c.Lead < 0 {
		return fmt.Errorf("core: negative Lead %d", c.Lead)
	}
	if c.Lead > 0 && c.Predictor != predict.Oracle {
		return fmt.Errorf("core: minimum prefetch lead requires the oracle policy, not %v", c.Predictor)
	}
	if c.MinPrefetchTime < 0 {
		return fmt.Errorf("core: negative MinPrefetchTime %v", c.MinPrefetchTime)
	}
	if c.DiskSeekPerBlock < 0 || c.DiskMaxSeek < 0 {
		return fmt.Errorf("core: negative disk seek parameters")
	}
	if c.Sync == barrier.EveryNPerProc && c.SyncEveryPerProc <= 0 {
		return fmt.Errorf("core: EveryNPerProc style needs SyncEveryPerProc > 0")
	}
	if c.Sync == barrier.EveryNTotal && c.SyncEveryTotal <= 0 {
		return fmt.Errorf("core: EveryNTotal style needs SyncEveryTotal > 0")
	}
	if c.Pattern.Procs != c.Procs {
		return fmt.Errorf("core: Pattern.Procs (%d) != Procs (%d)", c.Pattern.Procs, c.Procs)
	}
	if err := c.Fault.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Retry.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Fault.KillAt > 0 {
		if c.Fault.KillDisk >= c.Disks {
			return fmt.Errorf("core: Fault.KillDisk %d out of range for %d disks", c.Fault.KillDisk, c.Disks)
		}
		if c.Disks < 2 {
			return fmt.Errorf("core: killing the sole disk leaves no survivor for degraded mode")
		}
	}
	if err := c.NodeFault.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.NodeFault.StragglerFactor > 1 && c.NodeFault.StragglerNode >= c.Procs {
		return fmt.Errorf("core: NodeFault.StragglerNode %d out of range for %d procs", c.NodeFault.StragglerNode, c.Procs)
	}
	if c.NodeFault.KillAt > 0 {
		if c.NodeFault.KillNode >= c.Procs {
			return fmt.Errorf("core: NodeFault.KillNode %d out of range for %d procs", c.NodeFault.KillNode, c.Procs)
		}
		if c.Procs < 2 {
			return fmt.Errorf("core: killing the sole processor leaves no survivor to take over its work")
		}
	}
	if c.AuditEvery < 0 {
		return fmt.Errorf("core: negative AuditEvery %v", c.AuditEvery)
	}
	if err := c.Domain.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Domain.Enabled() {
		if err := c.Domain.CheckAgainst(c.Disks, c.Procs); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		// A domain node kill crashes its victims without posting their
		// unread blocks for takeover (whole-rack orphan redistribution
		// is not modelled); under a local pattern those blocks would
		// silently never be read, so correlated node kills are
		// restricted to the global patterns, where the shared cursor
		// lets survivors drain the remaining work naturally.
		if c.Domain.KillsNodes() && c.Pattern.Kind.Local() {
			return fmt.Errorf("core: failure-domain node kills support only global access patterns, not %v", c.Pattern.Kind)
		}
	}
	if c.CompactNodes {
		for _, cap := range compactCapabilities {
			if cap.blocked != nil && cap.blocked(c) {
				return cap.reject(c)
			}
		}
	}
	// Cluster-scale configurations multiply Procs by per-node counts
	// (CacheCapacity, pattern sizing); reject products that overflow int
	// rather than silently wrapping into a negative capacity.
	if !mulOK(c.Procs, c.RUSetSize) {
		return fmt.Errorf("core: Procs × RUSetSize (%d × %d) overflows", c.Procs, c.RUSetSize)
	}
	if c.Prefetch {
		if !mulOK(c.Procs, c.PrefetchBuffersPerProc) {
			return fmt.Errorf("core: Procs × PrefetchBuffersPerProc (%d × %d) overflows", c.Procs, c.PrefetchBuffersPerProc)
		}
		if c.Procs*c.RUSetSize > math.MaxInt-c.Procs*c.PrefetchBuffersPerProc {
			return fmt.Errorf("core: total cache capacity for %d procs overflows", c.Procs)
		}
	}
	return nil
}

// mulOK reports whether a × b fits in an int; both factors are already
// validated positive.
func mulOK(a, b int) bool { return a <= math.MaxInt/b }

// compactCapability is one feature axis of the compact engine. The
// table below is the single source of truth for what CompactNodes
// supports: supported axes document themselves (blocked nil), and the
// rest carry the predicate Validate uses to reject the combination
// plus the exact rejection message, pinned by
// TestCompactValidateRejects.
type compactCapability struct {
	feature string
	blocked func(*Config) bool  // nil: the axis is supported
	reject  func(*Config) error // rejection for a blocked combination
}

// compactCapabilities enumerates the compact engine's feature surface.
// PR 10 lifted the disk-fault, node-fault, and failure-domain
// rejections — the cnode state machine carries explicit backoff and
// dead states for them (see compact.go); the axes that remain blocked
// are structural: local patterns need per-process reference strings
// the flat cursor does not model, and the trace hook fires per access
// on paths the compact engine fuses.
var compactCapabilities = []compactCapability{
	{feature: "global access patterns"},
	{feature: "prefetching with backpressure"},
	{feature: "disk fault injection (transient/spike/stuck/timeout, retry with virtual-time backoff, degraded remap off dead disks)"},
	{feature: "node fault injection (stragglers, stalls, kill-at-virtual-time, barrier quorum timeouts, cache squeezes)"},
	{feature: "failure domains (correlated kills, latency storms, straggler spread)"},
	{
		feature: "local access patterns",
		blocked: func(c *Config) bool { return c.Pattern.Kind.Local() },
		reject: func(c *Config) error {
			return fmt.Errorf("core: CompactNodes supports only global access patterns, not %v", c.Pattern.Kind)
		},
	},
	{
		feature: "tracing",
		blocked: func(c *Config) bool { return c.Trace != nil },
		reject: func(c *Config) error {
			return fmt.Errorf("core: CompactNodes does not support tracing")
		},
	},
}

// CacheCapacity returns the total buffer frames for this configuration:
// one per processor per RU-set slot, plus the prefetch buffers when
// prefetching is on (20 + 60 in the paper's base configuration).
func (c *Config) CacheCapacity() int {
	cap := c.Procs * c.RUSetSize
	if c.Prefetch {
		cap += c.Procs * c.PrefetchBuffersPerProc
	}
	return cap
}

// Label returns a compact identifier for the run, used in tables and
// figure legends.
func (c *Config) Label() string {
	pf := "nopf"
	if c.Prefetch {
		pf = "pf"
	}
	io := "balanced"
	if c.ComputeMean == 0 {
		io = "iobound"
	}
	return fmt.Sprintf("%s/%s/%s/%s", c.Pattern.Kind, c.Sync, io, pf)
}

// IdleKind classifies the idle periods during which the file system runs
// prefetch actions (§III): waiting at a synchronization point, waiting
// for self-initiated disk I/O, or waiting for I/O initiated elsewhere
// (an unready buffer hit).
type IdleKind int

// The three exploited idle-time classes.
const (
	IdleSync IdleKind = iota
	IdleOwnIO
	IdleRemoteIO
)

// String names the idle kind.
func (k IdleKind) String() string {
	switch k {
	case IdleSync:
		return "sync"
	case IdleOwnIO:
		return "own-io"
	case IdleRemoteIO:
		return "remote-io"
	}
	return fmt.Sprintf("IdleKind(%d)", int(k))
}

// EventKind classifies trace events.
type EventKind int

// Trace event kinds.
const (
	EvReadStart EventKind = iota
	EvReadyHit
	EvUnreadyHit
	EvDemandFetch
	EvPrefetchIssue
	EvPrefetchFail
	EvReadDone
	EvSyncArrive
	EvSyncRelease
	// EvReadRetry records a demand read backing off after a failed fill
	// (fault injection). Its Outcome and Attempt fields carry what
	// failed and which retry this is.
	EvReadRetry
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvReadStart:
		return "read-start"
	case EvReadyHit:
		return "ready-hit"
	case EvUnreadyHit:
		return "unready-hit"
	case EvDemandFetch:
		return "demand-fetch"
	case EvPrefetchIssue:
		return "prefetch"
	case EvPrefetchFail:
		return "prefetch-fail"
	case EvReadDone:
		return "read-done"
	case EvSyncArrive:
		return "sync-arrive"
	case EvSyncRelease:
		return "sync-release"
	case EvReadRetry:
		return "read-retry"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// FaultOutcome classifies how a traced operation failed, mirroring the
// disk layer's typed errors. Zero (OutcomeNone) means no fault and is
// omitted from serialized traces, keeping fault-free trace files in
// the original five-field format.
type FaultOutcome int

// Fault outcomes.
const (
	OutcomeNone FaultOutcome = iota
	OutcomeTransient
	OutcomeTimeout
	OutcomeDead
)

// String names the outcome.
func (o FaultOutcome) String() string {
	switch o {
	case OutcomeNone:
		return "none"
	case OutcomeTransient:
		return "transient"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeDead:
		return "dead"
	}
	return fmt.Sprintf("FaultOutcome(%d)", int(o))
}

// ParseFaultOutcome converts an outcome name back to its FaultOutcome.
func ParseFaultOutcome(s string) (FaultOutcome, error) {
	for o := OutcomeNone; o <= OutcomeDead; o++ {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("core: unknown fault outcome %q", s)
}

// Event is one trace record: the exact access pattern the paper records
// for off-line analysis.
type Event struct {
	T     sim.Time
	Node  int
	Kind  EventKind
	Block int // -1 when not applicable
	Index int // reference-string index, -1 when not applicable

	// Outcome and Attempt carry fault detail on EvReadRetry events
	// (and are zero otherwise): what failed, and the 1-based retry
	// count this backoff precedes.
	Outcome FaultOutcome
	Attempt int
}
