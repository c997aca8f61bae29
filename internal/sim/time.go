// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Simulated processes are ordinary Go functions run as coroutines, and
// exactly one of them executes at a time: the kernel hands control to the
// process whose next event is due, and the process hands control back when
// it blocks (Advance, Wait, ...). This gives sequential, reproducible
// semantics — the same seed always yields the same execution — while
// letting process code be written in a natural blocking style.
//
// Alongside the blocking Proc API the kernel offers an event-driven
// continuation API — Waiter, Event.AddWaiter, Event.AddBlocked,
// Kernel.ScheduleWake — that runs entirely in kernel context with no
// coroutine switch and no per-event closure allocation. The testbed's
// processors are state machines on continuations; the blocking API
// serves the file system API and its clients. Both styles schedule
// through one event queue, FIFO within an instant, and a waiter parked
// with AddBlocked wakes exactly where a blocked process would, so
// mixing them preserves determinism.
//
// Time is virtual and counted in microseconds from the start of the run.
package sim

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Time is an instant in virtual time, in microseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Convenient duration units.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the instant as a duration since time zero.
func (t Time) String() string { return Duration(t).String() }

// String formats the duration in standard Go notation (1.5ms, 2s, ...).
// Past about 106 days the nanoseconds overflow time.Duration, so longer
// spans are formatted from the microseconds, in the same h/m/s form.
func (d Duration) String() string {
	const limit = Duration(math.MaxInt64 / int64(time.Microsecond))
	if -limit <= d && d <= limit {
		return (time.Duration(d) * time.Microsecond).String()
	}
	sign, u := "", uint64(d)
	if d < 0 {
		sign, u = "-", -u
	}
	s := fmt.Sprintf("%s%dh%dm%d", sign, u/3600e6, u/60e6%60, u/1e6%60)
	if frac := u % 1e6; frac != 0 {
		s += strings.TrimRight(fmt.Sprintf(".%06d", frac), "0")
	}
	return s + "s"
}

// Millis returns the duration as a floating-point number of milliseconds,
// the unit used throughout the paper.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis constructs a Duration from a floating-point number of
// milliseconds, rounding to the nearest microsecond.
func Millis(ms float64) Duration {
	if ms < 0 {
		panic(fmt.Sprintf("sim: negative duration %gms", ms))
	}
	return Duration(ms*float64(Millisecond) + 0.5)
}

// MaxTime is the largest representable instant.
const MaxTime Time = 1<<63 - 1
