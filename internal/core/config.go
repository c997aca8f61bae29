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
	"repro/internal/prefetch"
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
	// oracle reference-string policies (prefetch.Oracle, the default)
	// or one of the on-the-fly predictors that observe only the demand
	// stream and can mispredict (prefetch.OBL, prefetch.SEQ,
	// prefetch.GAPS).
	Predictor prefetch.Kind
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

	// CompactNodes picks the same-instant wake order of the processors
	// (see compact.go). False parks a waiting node behind the events
	// already due when its event fires, as a blocked process is; this
	// order reproduces the paper-scale goldens. True wakes it inline at
	// the firing; this order reproduces the cluster goldens. Both orders
	// are deterministic and support every configuration, but they give
	// different Result bytes, since same-instant work interleaves
	// differently. The field stays in Results and in the pinned cluster
	// digests, which serialize it.
	CompactNodes bool `json:"compactNodes,omitempty"`

	// Seed drives computation-delay randomness (and, via Pattern.Seed,
	// random portion geometry).
	Seed uint64

	// Obs, if non-nil, receives typed spans and counters from every
	// subsystem of the run (see internal/obs). An obs.Recorder here
	// records the run's exact access pattern, which obs.Analyze
	// summarizes. Excluded from JSON encodings; nil costs one branch
	// per emission site.
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
	if c.Lead > 0 && c.Predictor != prefetch.Oracle {
		return fmt.Errorf("core: minimum prefetch lead requires the oracle policy, not %v", c.Predictor)
	}
	if c.MinPrefetchTime < 0 {
		return fmt.Errorf("core: negative MinPrefetchTime %v", c.MinPrefetchTime)
	}
	if c.ComputeMean < 0 {
		return fmt.Errorf("core: negative ComputeMean %v", c.ComputeMean)
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
		// A disk or processor kill on top of the domain kill must still
		// leave a survivor: with no disk every read retries forever,
		// and with no processor the run ends with blocks unread.
		if d, ok := c.Domain.Killed(); ok {
			if c.Fault.KillAt > 0 && !d.ContainsDisk(c.Fault.KillDisk) && d.DiskCount+1 >= c.Disks {
				return fmt.Errorf("core: Fault.KillDisk %d and domain %q together leave no surviving disk", c.Fault.KillDisk, d.Name)
			}
			if c.NodeFault.KillAt > 0 && !d.ContainsNode(c.NodeFault.KillNode) && d.NodeCount+1 >= c.Procs {
				return fmt.Errorf("core: NodeFault.KillNode %d and domain %q together leave no surviving processor", c.NodeFault.KillNode, d.Name)
			}
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
// (an unready buffer hit). It is one byte wide, in the byte tail of
// each processor's record.
type IdleKind uint8

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
