// Correlated failure domains: named groups of disks and nodes (a rack,
// a zone) that fail together.
//
// PR 3 made single disks failable and PR 5 made single processors
// failable; at cluster scale failures stop being independent — a rack
// power event takes its disks *and* its nodes down at once, a switch
// firmware rollout storms the latency of a whole row, a bad kernel
// build straggles every node of one zone. DomainConfig names the
// groups and schedules the correlated events; the engine turns them
// into the same per-component faults the existing machinery already
// absorbs (disk kills remap onto survivors, node kills crash out with
// quorum recovery, storms stretch service times). Every draw the
// domain layer makes — straggler spread membership, storm onset jitter
// — comes from its own seeded PCG stream, split per domain, and is
// made at construction time, so domain chaos is exactly replayable
// from the seed. As everywhere in this package, the zero value injects
// nothing and consumers bypass the domain injector entirely when the
// configuration is inert.
package fault

import (
	"errors"
	"fmt"

	"repro/internal/memory"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Per-purpose stream id bases for domain draws, disjoint from the
// disk (1<<20), retry (1<<21), node (1<<22), and computation-delay
// (1000) bases. Streams split per domain index within each base.
const (
	domainStragglerStreamBase = 1 << 23
	domainStormStreamBase     = 1 << 24
)

// Domain is one named failure domain: a contiguous index range of
// disks and a contiguous index range of nodes that share fate (the
// usual rack wiring — a rack holds a slice of each). Either range may
// be empty.
type Domain struct {
	// Name identifies the domain in events and output (e.g. "rack3").
	Name string
	// DiskStart/DiskCount is the half-open disk index range
	// [DiskStart, DiskStart+DiskCount).
	DiskStart, DiskCount int
	// NodeStart/NodeCount is the half-open node index range.
	NodeStart, NodeCount int
}

// ContainsDisk reports whether disk i belongs to the domain.
func (d Domain) ContainsDisk(i int) bool {
	return i >= d.DiskStart && i < d.DiskStart+d.DiskCount
}

// ContainsNode reports whether node i belongs to the domain.
func (d Domain) ContainsNode(i int) bool {
	return i >= d.NodeStart && i < d.NodeStart+d.NodeCount
}

// SplitDomains slices disks and nodes into count equal named domains
// (prefix0..prefixN-1), the synthetic rack layout the CLIs and the
// chaos sweep use. Remainders go to the last domain.
func SplitDomains(prefix string, disks, nodes, count int) []Domain {
	if count <= 0 {
		panic("fault: non-positive domain count")
	}
	ds := make([]Domain, count)
	dper, nper := disks/count, nodes/count
	for i := range ds {
		ds[i] = Domain{
			Name:      fmt.Sprintf("%s%d", prefix, i),
			DiskStart: i * dper, DiskCount: dper,
			NodeStart: i * nper, NodeCount: nper,
		}
	}
	ds[count-1].DiskCount = disks - (count-1)*dper
	ds[count-1].NodeCount = nodes - (count-1)*nper
	return ds
}

// DomainConfig groups disks and nodes into named failure domains and
// schedules domain-level fault events against them. The zero value
// injects nothing and costs nothing: consumers check Enabled() and
// take their exact pre-domain code paths when the configuration is
// inert, which keeps domain-free runs byte-identical to the existing
// harness.
type DomainConfig struct {
	// Seed drives every domain-level draw (straggler spread
	// membership, storm onset jitter). Streams split per domain.
	Seed uint64

	// Domains names the failure domains. Defining domains alone is
	// inert; the events below reference them by name.
	Domains []Domain

	// KillDomain/KillAt: correlated kill — every disk and every node
	// of the named domain dies permanently at virtual time KillAt.
	// Dead disks' blocks remap onto survivors (degraded reads); dead
	// nodes crash out with the node-fault layer's semantics (no
	// barrier withdrawal — arm a BarrierTimeout to avoid deadlock
	// under synchronization).
	KillDomain string
	KillAt     sim.Duration

	// StormDomain/StormAt/StormFor/StormFactor: a domain-wide latency
	// storm — every disk of the named domain multiplies its service
	// times by StormFactor for requests dispatched during
	// [StormAt+jitter, StormAt+jitter+StormFor). StormJitter, when
	// positive, staggers each disk's onset by an independent uniform
	// draw in [0, StormJitter) from the domain's storm stream.
	StormDomain string
	StormAt     sim.Duration
	StormFor    sim.Duration
	StormFactor float64
	StormJitter sim.Duration

	// StragglerDomain/StragglerFactor/StragglerRate: straggler spread
	// — each node of the named domain independently becomes a
	// persistent straggler (every priced action scaled by
	// StragglerFactor) with probability StragglerRate, drawn once per
	// node from the domain's straggler stream.
	StragglerDomain string
	StragglerFactor float64
	StragglerRate   float64
}

func (c DomainConfig) killEnabled() bool { return c.KillDomain != "" && c.KillAt > 0 }
func (c DomainConfig) stormEnabled() bool {
	return c.StormDomain != "" && c.StormFor > 0 && c.StormFactor > 1
}
func (c DomainConfig) stragglerEnabled() bool {
	return c.StragglerDomain != "" && c.StragglerRate > 0 && c.StragglerFactor > 1
}

// Enabled reports whether the configuration can inject anything at
// all. Consumers bypass the domain injector entirely — taking their
// exact pre-domain code paths — when this is false.
func (c DomainConfig) Enabled() bool {
	return len(c.Domains) > 0 && (c.killEnabled() || c.stormEnabled() || c.stragglerEnabled())
}

// KillsDisks reports whether the scheduled kill takes down at least
// one disk (false when no kill is scheduled or the domain holds none).
func (c DomainConfig) KillsDisks() bool {
	d, ok := c.Killed()
	return ok && d.DiskCount > 0
}

// KillsNodes reports whether the scheduled kill takes down at least
// one node.
func (c DomainConfig) KillsNodes() bool {
	d, ok := c.Killed()
	return ok && d.NodeCount > 0
}

// Killed returns the domain the scheduled kill takes down, if any.
func (c DomainConfig) Killed() (Domain, bool) {
	if !c.killEnabled() {
		return Domain{}, false
	}
	i := c.find(c.KillDomain)
	if i < 0 {
		return Domain{}, false
	}
	return c.Domains[i], true
}

// find returns the index of the named domain, or -1.
func (c DomainConfig) find(name string) int {
	for i, d := range c.Domains {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks the configuration's internal consistency. Range
// checks against the actual disk and node counts live in CheckAgainst
// (the fault package does not know the machine's size).
func (c DomainConfig) Validate() error {
	seen := map[string]bool{}
	for i, d := range c.Domains {
		if d.Name == "" {
			return errors.New("fault: unnamed failure domain")
		}
		if seen[d.Name] {
			return fmt.Errorf("fault: duplicate failure domain %q", d.Name)
		}
		seen[d.Name] = true
		if d.DiskStart < 0 || d.DiskCount < 0 || d.NodeStart < 0 || d.NodeCount < 0 {
			return &FieldError{fmt.Sprintf("Domains[%d]", i), fmt.Sprintf("(%q) has a negative member range", d.Name)}
		}
	}
	if err := errors.Join(
		checkNonNegative("KillAt", c.KillAt, true),
		checkNonNegative("StormAt", c.StormAt, true),
		checkNonNegative("StormFor", c.StormFor, true),
		checkNonNegative("StormJitter", c.StormJitter, true),
		checkFactor("StormFactor", c.StormFactor, true),
		checkRate("StragglerRate", c.StragglerRate, true),
		checkFactor("StragglerFactor", c.StragglerFactor, true),
	); err != nil {
		return err
	}
	for _, ref := range []struct {
		name string
		on   bool
	}{
		{c.KillDomain, c.KillDomain != ""},
		{c.StormDomain, c.StormDomain != ""},
		{c.StragglerDomain, c.StragglerDomain != ""},
	} {
		if ref.on && c.find(ref.name) < 0 {
			return fmt.Errorf("fault: event references unknown failure domain %q", ref.name)
		}
	}
	return nil
}

// CheckAgainst validates the domain member ranges against the actual
// machine size and — when a kill is scheduled — that it leaves at
// least one disk and one node alive (degraded reads need a surviving
// disk; the run needs a surviving reader).
func (c DomainConfig) CheckAgainst(disks, procs int) error {
	// The member ranges are non-negative (Validate), so comparing start
	// against the room left cannot wrap the way start+count can.
	for i, d := range c.Domains {
		if d.DiskCount > disks || d.DiskStart > disks-d.DiskCount {
			return &FieldError{fmt.Sprintf("Domains[%d].DiskStart", i), fmt.Sprintf("%d with DiskCount %d (%q) out of range for %d disks",
				d.DiskStart, d.DiskCount, d.Name, disks)}
		}
		if d.NodeCount > procs || d.NodeStart > procs-d.NodeCount {
			return &FieldError{fmt.Sprintf("Domains[%d].NodeStart", i), fmt.Sprintf("%d with NodeCount %d (%q) out of range for %d procs",
				d.NodeStart, d.NodeCount, d.Name, procs)}
		}
	}
	if d, ok := c.Killed(); ok {
		if d.DiskCount >= disks {
			return fmt.Errorf("fault: killing domain %q leaves no surviving disk", d.Name)
		}
		if d.NodeCount >= procs {
			return fmt.Errorf("fault: killing domain %q leaves no surviving processor", d.Name)
		}
	}
	return nil
}

// DomainInjector precomputes every domain-level fault decision for one
// run. All randomness is consumed here, at construction, in index
// order — nothing is drawn during the run, so the domain layer cannot
// perturb (or be perturbed by) the per-disk and per-node streams.
type DomainInjector struct {
	cfg DomainConfig

	killDisks []int
	killNodes []int

	stormStart map[int]sim.Duration // per stormed disk: jittered onset
	stormEnd   map[int]sim.Duration

	// straggler marks the nodes the straggler spread selected, indexed
	// from the straggler domain's first node; stragglers counts them.
	straggler  []bool
	nodeStart  int
	stragglers int
}

// NewDomains returns a domain injector. It panics on an invalid
// configuration — callers validate first.
func NewDomains(cfg DomainConfig) *DomainInjector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	di := &DomainInjector{cfg: cfg}
	if d, ok := cfg.Killed(); ok {
		for i := 0; i < d.DiskCount; i++ {
			di.killDisks = append(di.killDisks, d.DiskStart+i)
		}
		for i := 0; i < d.NodeCount; i++ {
			di.killNodes = append(di.killNodes, d.NodeStart+i)
		}
	}
	if cfg.stormEnabled() {
		idx := cfg.find(cfg.StormDomain)
		d := cfg.Domains[idx]
		src := rng.New(cfg.Seed, domainStormStreamBase+uint64(idx))
		di.stormStart = make(map[int]sim.Duration, d.DiskCount)
		di.stormEnd = make(map[int]sim.Duration, d.DiskCount)
		for i := 0; i < d.DiskCount; i++ {
			onset := cfg.StormAt
			if cfg.StormJitter > 0 {
				onset += sim.Duration(src.Float64() * float64(cfg.StormJitter))
			}
			di.stormStart[d.DiskStart+i] = onset
			di.stormEnd[d.DiskStart+i] = onset + cfg.StormFor
		}
	}
	if cfg.stragglerEnabled() {
		idx := cfg.find(cfg.StragglerDomain)
		d := cfg.Domains[idx]
		src := rng.New(cfg.Seed, domainStragglerStreamBase+uint64(idx))
		di.straggler, di.nodeStart = make([]bool, d.NodeCount), d.NodeStart
		for i := range di.straggler {
			if src.Float64() < cfg.StragglerRate {
				di.straggler[i] = true
				di.stragglers++
			}
		}
	}
	return di
}

// Config returns the configuration driving the injector.
func (di *DomainInjector) Config() DomainConfig { return di.cfg }

// DiskKills returns the disks the correlated kill takes down and when
// (nil when no kill is scheduled).
func (di *DomainInjector) DiskKills() (disks []int, at sim.Duration) {
	return di.killDisks, di.cfg.KillAt
}

// NodeKills returns the nodes the correlated kill takes down and when
// (nil when no kill is scheduled).
func (di *DomainInjector) NodeKills() (nodes []int, at sim.Duration) {
	return di.killNodes, di.cfg.KillAt
}

// Storm returns the jittered storm window and factor for one disk
// (ok=false when the disk is not in the storm domain).
func (di *DomainInjector) Storm(disk int) (start, end sim.Duration, factor float64, ok bool) {
	s, in := di.stormStart[disk]
	if !in {
		return 0, 0, 0, false
	}
	return s, di.stormEnd[disk], di.cfg.StormFactor, true
}

// Stragglers returns how many nodes the straggler spread selected.
func (di *DomainInjector) Stragglers() int { return di.stragglers }

// ScaleNode applies the straggler-spread slowdown to one node's priced
// action cost (the cost model's base and contention term both scale —
// see memory.Cost.Scaled). Nodes outside the spread pass through
// untouched.
func (di *DomainInjector) ScaleNode(node int, c memory.Cost) memory.Cost {
	if i := node - di.nodeStart; i >= 0 && i < len(di.straggler) && di.straggler[i] {
		return c.Scaled(di.cfg.StragglerFactor)
	}
	return c
}
