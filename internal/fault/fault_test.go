package fault

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config must be disabled")
	}
	cases := []Config{
		{ReadErrorRate: 0.1},
		{SpikeRate: 0.2},
		{StuckRate: 0.01},
		{Timeout: sim.Second},
		{KillAt: sim.Second},
	}
	for _, c := range cases {
		if !c.Enabled() {
			t.Errorf("%+v should be enabled", c)
		}
	}
	// A seed alone injects nothing.
	if (Config{Seed: 42}).Enabled() {
		t.Error("seed-only config must be disabled")
	}
}

func TestConfigValidate(t *testing.T) {
	ok := []Config{
		{},
		{ReadErrorRate: 0.5, SpikeRate: 0.99, StuckRate: 0},
		{Timeout: sim.Second, KillAt: 2 * sim.Second, KillDisk: 3},
	}
	for _, c := range ok {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", c, err)
		}
	}
	type tc struct {
		c    Config
		want string
	}
	bad := []tc{
		{Config{ReadErrorRate: 1}, "ReadErrorRate"},
		{Config{ReadErrorRate: -0.1}, "ReadErrorRate"},
		{Config{SpikeRate: 1.5}, "SpikeRate"},
		{Config{StuckRate: 1}, "StuckRate"},
		{Config{SpikeMean: -sim.Second}, "SpikeMean"},
		{Config{Timeout: -1}, "Timeout"},
		{Config{KillAt: sim.Second, KillDisk: -1}, "KillDisk"},
	}
	// NaN passes a pair of range comparisons, and an infinite or huge
	// multiplier wraps the scaled service time: each is refused with a
	// typed error naming the field.
	for _, v := range odd {
		bad = append(bad, tc{Config{ReadErrorRate: v}, "ReadErrorRate"},
			tc{Config{SpikeRate: 0.5, SpikeMultiplier: v}, "SpikeMultiplier"},
			tc{Config{StuckRate: v}, "StuckRate"})
	}
	for _, tc := range bad {
		err := tc.c.Validate()
		if err == nil {
			t.Errorf("%+v: expected error", tc.c)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %q does not mention %q", tc.c, err, tc.want)
		}
		checkField(t, err, tc.want)
	}
	if err := (Config{SpikeRate: 0.5, SpikeMultiplier: MaxFactor}).Validate(); err != nil {
		t.Errorf("SpikeMultiplier at MaxFactor refused: %v", err)
	}
}

// odd are the float values a pair of range comparisons lets through or
// that wrap a scaled duration: every rate and factor field refuses
// them.
var odd = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300}

// checkField fails unless err is a *FieldError whose Field contains
// field.
func checkField(t *testing.T, err error, field string) {
	t.Helper()
	var fe *FieldError
	if !errors.As(err, &fe) || !strings.Contains(fe.Field, field) {
		t.Errorf("%v: want a *FieldError naming %s", err, field)
	}
}

// TestNodeConfigValidate refuses every invalid node-fault field with a
// typed error naming it, NaN and infinities included.
func TestNodeConfigValidate(t *testing.T) {
	for _, c := range []NodeConfig{
		{},
		{StragglerFactor: 1},
		{StragglerFactor: MaxFactor, StragglerNode: 2},
		{StallRate: 0.5, StallMean: sim.Millisecond, KillAt: sim.Second, BarrierTimeout: sim.Second},
		{SqueezeAt: sim.Second, SqueezeFrames: 2},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", c, err)
		}
	}
	type tc struct {
		c     NodeConfig
		field string
	}
	bad := []tc{
		{NodeConfig{StallRate: 1}, "StallRate"},
		{NodeConfig{StallRate: -0.5}, "StallRate"},
		{NodeConfig{StragglerFactor: 0.5}, "StragglerFactor"},
		{NodeConfig{StragglerFactor: -2}, "StragglerFactor"},
		{NodeConfig{StragglerFactor: 2, StragglerNode: -1}, "StragglerNode"},
		{NodeConfig{StallMean: -1}, "StallMean"},
		{NodeConfig{KillAt: -1}, "KillAt"},
		{NodeConfig{BarrierTimeout: -1}, "BarrierTimeout"},
		{NodeConfig{SqueezeAt: -1}, "SqueezeAt"},
		{NodeConfig{KillAt: sim.Second, KillNode: -1}, "KillNode"},
		{NodeConfig{SqueezeFrames: -1}, "SqueezeFrames"},
		{NodeConfig{SqueezeAt: sim.Second}, "SqueezeFrames"},
	}
	for _, v := range odd {
		bad = append(bad, tc{NodeConfig{StallRate: v}, "StallRate"},
			tc{NodeConfig{StragglerFactor: v}, "StragglerFactor"})
	}
	for _, b := range bad {
		err := b.c.Validate()
		if err == nil {
			t.Errorf("%+v: expected an error naming %s", b.c, b.field)
			continue
		}
		checkField(t, err, b.field)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{ReadErrorRate: 2}, 1)
}

// Two injectors with the same seed must replay the same outcome
// sequence per disk, and the sequence on one disk must not depend on
// how often other disks are consulted — that independence is what
// makes faulted runs byte-identical for any worker count.
func TestDecideDeterministicAndPerDiskIndependent(t *testing.T) {
	cfg := Config{
		Seed:          99,
		ReadErrorRate: 0.2,
		SpikeRate:     0.3,
		SpikeMean:     5 * sim.Millisecond,
		StuckRate:     0.05,
	}
	a := New(cfg, 4)
	b := New(cfg, 4)

	var seqA []Outcome
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.Decide(1))
	}
	// Interleave heavy traffic on other disks of b before/between
	// draws on disk 1.
	var seqB []Outcome
	for i := 0; i < 200; i++ {
		b.Decide(0)
		b.Decide(3)
		seqB = append(seqB, b.Decide(1))
		b.Decide(2)
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("draw %d differs: %+v vs %+v", i, seqA[i], seqB[i])
		}
	}
}

func TestDecideRates(t *testing.T) {
	cfg := Config{Seed: 7, ReadErrorRate: 0.10, StuckRate: 0.05}
	inj := New(cfg, 1)
	const n = 20000
	var errs, stuck int
	for i := 0; i < n; i++ {
		switch inj.Decide(0).Kind {
		case Transient:
			errs++
		case Stuck:
			stuck++
		}
	}
	if got := float64(errs) / n; got < 0.08 || got > 0.12 {
		t.Errorf("transient rate %.3f, want ~0.10", got)
	}
	if got := float64(stuck) / n; got < 0.035 || got > 0.065 {
		t.Errorf("stuck rate %.3f, want ~0.05", got)
	}
}

func TestStuckDelayDefaulted(t *testing.T) {
	inj := New(Config{Seed: 1, StuckRate: 0.5}, 1)
	if got := inj.Config().StuckDelay; got != defaultStuckDelay {
		t.Fatalf("StuckDelay = %v, want %v", got, defaultStuckDelay)
	}
	for i := 0; i < 100; i++ {
		if out := inj.Decide(0); out.Kind == Stuck && out.StuckFor != defaultStuckDelay {
			t.Fatalf("StuckFor = %v, want %v", out.StuckFor, defaultStuckDelay)
		}
	}
}

func TestSpikeTail(t *testing.T) {
	cfg := Config{Seed: 3, SpikeRate: 0.5, SpikeMean: 10 * sim.Millisecond}
	inj := New(cfg, 1)
	var spikes int
	var total sim.Duration
	const n = 10000
	for i := 0; i < n; i++ {
		if out := inj.Decide(0); out.Spiked {
			spikes++
			total += out.Extra
		}
	}
	if got := float64(spikes) / n; got < 0.45 || got > 0.55 {
		t.Errorf("spike rate %.3f, want ~0.5", got)
	}
	mean := float64(total.Millis()) / float64(spikes)
	if mean < 8 || mean > 12 {
		t.Errorf("spike tail mean %.2f ms, want ~10 ms", mean)
	}
}

func TestSpikeMultiplier(t *testing.T) {
	if got := New(Config{SpikeRate: 0.1}, 1).SpikeMultiplier(); got != 1 {
		t.Errorf("default multiplier = %v, want 1", got)
	}
	if got := New(Config{SpikeRate: 0.1, SpikeMultiplier: 4}, 1).SpikeMultiplier(); got != 4 {
		t.Errorf("multiplier = %v, want 4", got)
	}
}

func TestRetryPolicyValidate(t *testing.T) {
	if err := (RetryPolicy{}).Validate(); err != nil {
		t.Errorf("zero policy: %v", err)
	}
	if err := DefaultRetry().Validate(); err != nil {
		t.Errorf("default policy: %v", err)
	}
	bad := []RetryPolicy{
		{MaxAttempts: -1},
		{Base: -sim.Second},
		{Base: sim.Second, Cap: sim.Millisecond},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("%+v: expected error", p)
		}
	}
}

func TestRetryPolicyExhausted(t *testing.T) {
	unlimited := DefaultRetry()
	if unlimited.Exhausted(1 << 20) {
		t.Error("unlimited policy must never exhaust")
	}
	p := RetryPolicy{MaxAttempts: 3, Base: sim.Millisecond}
	if p.Exhausted(2) {
		t.Error("2 of 3 attempts is not exhausted")
	}
	if !p.Exhausted(3) {
		t.Error("3 of 3 attempts is exhausted")
	}
}

// The deterministic (nil-stream) backoff must double from Base and
// clip at Cap; the jittered backoff must stay within (d/2, d] of that
// schedule and be reproducible from the stream.
func TestBackoffSchedule(t *testing.T) {
	p := RetryPolicy{Base: 4 * sim.Millisecond, Cap: 20 * sim.Millisecond}
	want := []sim.Duration{
		4 * sim.Millisecond,
		8 * sim.Millisecond,
		16 * sim.Millisecond,
		20 * sim.Millisecond,
		20 * sim.Millisecond,
	}
	for i, w := range want {
		if got := p.Backoff(i+1, nil); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := (RetryPolicy{}).Backoff(1, nil); got != 0 {
		t.Errorf("disabled policy Backoff = %v, want 0", got)
	}

	inj := New(Config{Seed: 11, ReadErrorRate: 0.1}, 1)
	s1 := inj.RetryStream(2)
	s2 := inj.RetryStream(2)
	for retry := 1; retry <= 8; retry++ {
		d := p.Backoff(retry, nil)
		j1 := p.Backoff(retry, s1)
		j2 := p.Backoff(retry, s2)
		if j1 != j2 {
			t.Fatalf("retry %d: jitter not reproducible: %v vs %v", retry, j1, j2)
		}
		if j1 <= d/2 || j1 > d {
			t.Errorf("retry %d: jittered %v outside (%v, %v]", retry, j1, d/2, d)
		}
	}
}

func TestRetryStreamsIndependent(t *testing.T) {
	inj := New(Config{Seed: 5, ReadErrorRate: 0.1}, 2)
	a := inj.RetryStream(0)
	b := inj.RetryStream(1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/64 identical draws across node streams", same)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{None: "none", Transient: "transient", Stuck: "stuck", Kind(9): "Kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestKills(t *testing.T) {
	if _, _, ok := New(Config{ReadErrorRate: 0.1}, 2).Kills(); ok {
		t.Error("no kill configured, Kills() reported one")
	}
	d, at, ok := New(Config{KillAt: 3 * sim.Second, KillDisk: 1}, 2).Kills()
	if !ok || d != 1 || at != 3*sim.Second {
		t.Errorf("Kills() = (%d, %v, %v), want (1, 3s, true)", d, at, ok)
	}
}
