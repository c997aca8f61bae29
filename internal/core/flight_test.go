package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/barrier"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// flightConfig builds a telemetry sink whose crash dump lands in the
// returned buffers instead of stderr.
func flightSink() (*telemetry.Sink, *bytes.Buffer, *bytes.Buffer) {
	var human, trace bytes.Buffer
	s := telemetry.New(telemetry.Config{
		FlightOut:   &human,
		FlightTrace: &trace,
	})
	return s, &human, &trace
}

// TestFlightDumpOnDeadlock forces the classic kill-without-timeout
// deadlock and checks that the engine hands the panic to the telemetry
// flight recorder before re-raising it: the human dump must carry the
// deadlock diagnostic (naming the stuck processes), a last-activity
// digest of the tracks, and the ring's final spans; the side-channel
// trace must be a readable span trace.
func TestFlightDumpOnDeadlock(t *testing.T) {
	cfg := smallConfig(pattern.LFP, 4, 50)
	cfg.Sync = barrier.EveryNPerProc
	cfg.NodeFault = fault.NodeConfig{Seed: 1, KillAt: 400 * sim.Millisecond}
	sink, human, trace := flightSink()
	cfg.Obs = sink

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("kill without barrier timeout did not deadlock")
		}
		if _, ok := r.(*sim.DeadlockError); !ok {
			t.Fatalf("panic value %T, want *sim.DeadlockError", r)
		}
		out := human.String()
		for _, want := range []string{
			"=== telemetry flight recorder ===",
			"sim: deadlock",     // the cause line carries the kernel diagnostic
			"barrier release",   // ... naming what the survivors wait on
			"tracks heard from", // the per-track last-activity digest
			"proc",              // ... which names the stuck processor tracks
			"last ",             // the ring's final spans
		} {
			if !strings.Contains(out, want) {
				t.Errorf("flight dump missing %q:\n%s", want, out)
			}
		}
		// The ring must actually hold spans: a 4-proc run to 400 ms
		// emits far more than the ring's capacity.
		if spans := sink.Flight().Spans(); len(spans) == 0 {
			t.Error("flight ring is empty at deadlock")
		} else {
			// The dump ends with the ring contents, newest last.
			last := spans[len(spans)-1]
			if !strings.Contains(out, last.Track.String()) {
				t.Errorf("dump does not show the final ring span's track %s", last.Track)
			}
		}
		rec, err := obs.Read(trace)
		if err != nil {
			t.Fatalf("flight trace unreadable: %v", err)
		}
		if len(rec.Spans) == 0 {
			t.Error("flight trace has no spans")
		}
		if err := rec.CheckNesting(); err != nil {
			t.Errorf("flight trace fails the nesting check: %v", err)
		}
	}()
	MustRun(cfg)
}

// TestFlightDumpOnViolation seeds mid-run state corruption (the
// auditor pattern from TestAuditorCatchesSeededCorruption) and checks
// the audit Violation also routes through the flight recorder.
func TestFlightDumpOnViolation(t *testing.T) {
	cfg := smallConfig(pattern.GW, 4, 200)
	cfg.Sync = barrier.EveryNPerProc
	cfg.AuditEvery = 5 * sim.Millisecond
	sink, human, _ := flightSink()
	cfg.Obs = sink

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.k.Schedule(sim.Time(100*sim.Millisecond), func() { e.globalCursor = -5 })

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("corruption not caught")
		}
		v, ok := r.(*audit.Violation)
		if !ok {
			t.Fatalf("panic value %T, want *audit.Violation", r)
		}
		out := human.String()
		if !strings.Contains(out, "cursor-bounds") {
			t.Errorf("flight dump does not name the violated invariant:\n%s", out)
		}
		if !strings.Contains(out, "tracks heard from") {
			t.Errorf("flight dump has no track digest:\n%s", out)
		}
		_ = v
	}()
	e.Run()
}

// TestNoDumpOnCleanRun: a healthy run must not write a flight dump.
func TestNoDumpOnCleanRun(t *testing.T) {
	cfg := smallConfig(pattern.GW, 4, 100)
	sink, human, trace := flightSink()
	cfg.Obs = sink
	MustRun(cfg)
	if human.Len() != 0 || trace.Len() != 0 {
		t.Errorf("clean run wrote a flight dump (%d + %d bytes)", human.Len(), trace.Len())
	}
}

// TestFlightDumpFaultDeadlocks table-tests the fault-injected
// deadlocks in both wake orders ("goroutine" names the blocked-process
// order, which the goroutine engine ran; "compact" the inline order): a
// correlated rack kill under barrier synchronization without a quorum
// timeout, and a processor kill under prefetch backpressure. Killed
// processors never withdraw from their barriers, so both shapes
// deadlock by design — and every variant must panic with a
// *sim.DeadlockError routed through the telemetry flight recorder
// before re-raising, so a cluster-scale post-mortem always has the last
// spans and the per-track digest naming the stuck processors.
func TestFlightDumpFaultDeadlocks(t *testing.T) {
	domainKill := func(c *Config) {
		c.Sync = barrier.EveryNTotal
		c.SyncEveryTotal = 50
		c.Domain = fault.DomainConfig{
			Seed:       1,
			Domains:    fault.SplitDomains("rack", c.Disks, c.Procs, 4),
			KillDomain: "rack1",
			KillAt:     100 * sim.Millisecond,
		}
	}
	backpressureKill := func(c *Config) {
		c.Sync = barrier.EveryNPerProc
		c.Prefetch = true
		c.NodeFault = fault.NodeConfig{
			Seed:         1,
			KillAt:       200 * sim.Millisecond,
			KillNode:     2,
			Backpressure: true,
		}
	}
	cases := []struct {
		name    string
		compact bool
		mutate  func(*Config)
	}{
		{"domain-kill/goroutine", false, domainKill},
		{"domain-kill/compact", true, domainKill},
		{"backpressure-kill/goroutine", false, backpressureKill},
		{"backpressure-kill/compact", true, backpressureKill},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(pattern.GW)
			cfg.Procs = 4
			cfg.Disks = 4
			cfg.Pattern.Procs = 4
			cfg.Pattern.TotalBlocks = 200
			cfg.CompactNodes = tc.compact
			tc.mutate(&cfg)
			sink, human, trace := flightSink()
			cfg.Obs = sink
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("fault-injected run did not deadlock")
				}
				if _, ok := r.(*sim.DeadlockError); !ok {
					t.Fatalf("panic value %T, want *sim.DeadlockError", r)
				}
				out := human.String()
				for _, want := range []string{
					"=== telemetry flight recorder ===",
					"tracks heard from",
					"proc",
				} {
					if !strings.Contains(out, want) {
						t.Errorf("flight dump missing %q:\n%s", want, out)
					}
				}
				if rec, err := obs.Read(trace); err != nil {
					t.Errorf("flight trace unreadable: %v", err)
				} else if len(rec.Spans) == 0 {
					t.Error("flight trace has no spans")
				}
			}()
			MustRun(cfg)
		})
	}
}

// TestFlightDumpCompactViolation: the inline order's panic paths route
// through the same defer. Corrupt the shared pattern cursor from a
// scheduled kernel event mid-run, rather than from a trace hook as
// TestFlightDumpOnViolation does; the auditor's Violation must still
// arrive with a flight dump attached.
func TestFlightDumpCompactViolation(t *testing.T) {
	cfg := DefaultConfig(pattern.GW)
	cfg.Procs = 4
	cfg.Disks = 4
	cfg.Pattern.Procs = 4
	cfg.Pattern.TotalBlocks = 200
	cfg.CompactNodes = true
	cfg.AuditEvery = 5 * sim.Millisecond
	sink, human, _ := flightSink()
	cfg.Obs = sink

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.k.Schedule(sim.Time(100*sim.Millisecond), func() {
		e.globalCursor = -5
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("corrupted compact run did not panic")
		}
		if _, ok := r.(*audit.Violation); !ok {
			t.Fatalf("panic value %T, want *audit.Violation", r)
		}
		if !strings.Contains(human.String(), "cursor-bounds") {
			t.Errorf("compact flight dump does not name the invariant:\n%s", human.String())
		}
	}()
	e.Run()
}
