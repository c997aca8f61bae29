package fault

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"repro/internal/memory"
	"repro/internal/sim"
)

func ms(v float64) sim.Duration { return sim.Duration(v * 1e6) }

// rack splits 8 disks and 16 nodes into 4 racks and layers the given
// events on top.
func rackConfig() DomainConfig {
	return DomainConfig{
		Seed:    7,
		Domains: SplitDomains("rack", 8, 16, 4),
	}
}

func TestDomainZeroValueInert(t *testing.T) {
	var c DomainConfig
	if c.Enabled() {
		t.Fatal("zero DomainConfig reports Enabled")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("zero DomainConfig fails Validate: %v", err)
	}
	// Defining domains without any event is still inert.
	c = rackConfig()
	if c.Enabled() {
		t.Fatal("event-free DomainConfig reports Enabled")
	}
}

func TestSplitDomainsCoversEverything(t *testing.T) {
	ds := SplitDomains("rack", 10, 7, 3)
	if len(ds) != 3 {
		t.Fatalf("got %d domains, want 3", len(ds))
	}
	disks, nodes := 0, 0
	for _, d := range ds {
		disks += d.DiskCount
		nodes += d.NodeCount
	}
	if disks != 10 || nodes != 7 {
		t.Fatalf("split covers %d disks / %d nodes, want 10 / 7", disks, nodes)
	}
	if ds[2].Name != "rack2" {
		t.Fatalf("last domain named %q", ds[2].Name)
	}
	// Remainders land in the last domain.
	if ds[2].DiskCount != 4 || ds[2].NodeCount != 3 {
		t.Fatalf("last domain got %d disks / %d nodes, want 4 / 3", ds[2].DiskCount, ds[2].NodeCount)
	}
}

func TestDomainValidateRejects(t *testing.T) {
	type tc struct {
		name string
		mut  func(*DomainConfig)
		want string
	}
	cases := []tc{
		{"unnamed", func(c *DomainConfig) { c.Domains[1].Name = "" }, "unnamed"},
		{"duplicate", func(c *DomainConfig) { c.Domains[1].Name = "rack0" }, "duplicate"},
		{"negative range", func(c *DomainConfig) { c.Domains[0].DiskCount = -1 }, "Domains[0]"},
		{"negative time", func(c *DomainConfig) { c.KillDomain, c.KillAt = "rack0", -ms(1) }, "KillAt"},
		{"negative storm jitter", func(c *DomainConfig) { c.StormJitter = -1 }, "StormJitter"},
		{"storm speedup", func(c *DomainConfig) { c.StormFactor = 0.5 }, "StormFactor"},
		{"rate range", func(c *DomainConfig) { c.StragglerRate = 1.5 }, "StragglerRate"},
		{"straggler speedup", func(c *DomainConfig) { c.StragglerFactor = 0.2 }, "StragglerFactor"},
		{"unknown kill", func(c *DomainConfig) { c.KillDomain, c.KillAt = "rack9", ms(1) }, "unknown failure domain"},
		{"unknown storm", func(c *DomainConfig) { c.StormDomain = "zoneX" }, "unknown failure domain"},
	}
	// NaN passes a pair of range comparisons, and an infinite or huge
	// factor wraps the scaled durations: a typed error names the field.
	for _, v := range odd {
		cases = append(cases,
			tc{fmt.Sprint("storm factor ", v), func(c *DomainConfig) { c.StormFactor = v }, "StormFactor"},
			tc{fmt.Sprint("straggler factor ", v), func(c *DomainConfig) { c.StragglerFactor = v }, "StragglerFactor"},
			tc{fmt.Sprint("straggler rate ", v), func(c *DomainConfig) { c.StragglerRate = v }, "StragglerRate"})
	}
	for _, tc := range cases {
		c := rackConfig()
		tc.mut(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
		if unicode.IsUpper(rune(tc.want[0])) {
			checkField(t, err, tc.want)
		}
	}
}

func TestDomainCheckAgainst(t *testing.T) {
	c := rackConfig()
	if err := c.CheckAgainst(8, 16); err != nil {
		t.Fatalf("in-range config rejected: %v", err)
	}
	if err := c.CheckAgainst(7, 16); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("disk overflow: got %v", err)
	}
	if err := c.CheckAgainst(8, 15); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("node overflow: got %v", err)
	}
	// A kill must leave survivors on both axes.
	whole := DomainConfig{
		Domains:    []Domain{{Name: "all", DiskCount: 8, NodeCount: 8}},
		KillDomain: "all", KillAt: ms(5),
	}
	if err := whole.CheckAgainst(8, 16); err == nil || !strings.Contains(err.Error(), "no surviving disk") {
		t.Fatalf("disk wipeout: got %v", err)
	}
	if err := whole.CheckAgainst(16, 8); err == nil || !strings.Contains(err.Error(), "no surviving processor") {
		t.Fatalf("node wipeout: got %v", err)
	}
	// A member range whose end would wrap past MaxInt is out of range,
	// not a small negative end that passes.
	for _, d := range []Domain{
		{Name: "wrap", DiskStart: math.MaxInt, DiskCount: 1, NodeCount: 1},
		{Name: "wrap", DiskStart: 1, DiskCount: math.MaxInt, NodeCount: 1},
		{Name: "wrap", DiskCount: 1, NodeStart: math.MaxInt, NodeCount: 1},
		{Name: "wrap", DiskCount: 1, NodeStart: 1, NodeCount: math.MaxInt},
	} {
		c := DomainConfig{Domains: []Domain{d}}
		if err := c.Validate(); err != nil {
			t.Fatalf("%+v: Validate: %v", d, err)
		}
		err := c.CheckAgainst(8, 16)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%+v: got %v, want out of range", d, err)
			continue
		}
		checkField(t, err, "Domains[0]")
	}
}

func TestDomainKillMembership(t *testing.T) {
	c := rackConfig()
	c.KillDomain, c.KillAt = "rack1", ms(40)
	di := NewDomains(c)
	disks, at := di.DiskKills()
	if at != ms(40) || !reflect.DeepEqual(disks, []int{2, 3}) {
		t.Fatalf("disk kills = %v at %v", disks, at)
	}
	nodes, _ := di.NodeKills()
	if !reflect.DeepEqual(nodes, []int{4, 5, 6, 7}) {
		t.Fatalf("node kills = %v", nodes)
	}
}

func TestDomainStormWindowsReplayable(t *testing.T) {
	c := rackConfig()
	c.StormDomain, c.StormAt, c.StormFor = "rack2", ms(10), ms(30)
	c.StormFactor, c.StormJitter = 4, ms(5)
	a, b := NewDomains(c), NewDomains(c)
	sawJitter := false
	for disk := 0; disk < 8; disk++ {
		s1, e1, f1, ok1 := a.Storm(disk)
		s2, e2, f2, ok2 := b.Storm(disk)
		if s1 != s2 || e1 != e2 || f1 != f2 || ok1 != ok2 {
			t.Fatalf("disk %d: storm window not replayable", disk)
		}
		if in := disk >= 4 && disk < 6; ok1 != in {
			t.Fatalf("disk %d: in storm = %v, want %v", disk, ok1, in)
		}
		if ok1 {
			if s1 < ms(10) || s1 >= ms(15) || e1 != s1+ms(30) || f1 != 4 {
				t.Fatalf("disk %d: window [%v,%v) x%g outside jitter bounds", disk, s1, e1, f1)
			}
			if s1 != ms(10) {
				sawJitter = true
			}
		}
	}
	if !sawJitter {
		t.Error("storm jitter never moved an onset (stream unused?)")
	}
}

func TestDomainStragglerSpread(t *testing.T) {
	// rack2 starts at node 8: the spread is indexed from its domain's
	// first node, not from node 0.
	for _, rack := range []struct {
		name  string
		first int
	}{{"rack0", 0}, {"rack2", 8}} {
		c := rackConfig()
		c.StragglerDomain, c.StragglerFactor, c.StragglerRate = rack.name, 3, 0.5
		a, b := NewDomains(c), NewDomains(c)
		if a.Stragglers() != b.Stragglers() {
			t.Fatal("straggler spread not replayable")
		}
		cost := memory.Cost{Base: ms(1)}
		scaled := 0
		for n := 0; n < 16; n++ {
			got := a.ScaleNode(n, cost)
			if got != b.ScaleNode(n, cost) {
				t.Fatalf("node %d: straggler scaling not replayable", n)
			}
			if got != cost {
				if n < rack.first || n >= rack.first+4 {
					t.Fatalf("node %d outside %s straggles", n, rack.name)
				}
				if got.Base != 3*cost.Base {
					t.Fatalf("node %d: base scaled to %v, want 3x", n, got.Base)
				}
				scaled++
			}
		}
		if scaled != a.Stragglers() {
			t.Fatalf("%s: %d nodes scaled, injector says %d", rack.name, scaled, a.Stragglers())
		}
		if scaled == 0 || scaled == 4 {
			t.Logf("%s: spread selected %d/4 (boundary draw — fine, just deterministic)", rack.name, scaled)
		}
	}
}
