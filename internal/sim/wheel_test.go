package sim

import (
	"math/rand"
	"testing"
)

// drainCompare pops both queues dry and asserts identical (at, seq)
// order. The event payloads carry no pointers here, so order is the
// whole contract.
func drainCompare(t *testing.T, tag string, w *timerWheel, h *eventHeap) {
	t.Helper()
	for h.len() > 0 {
		if w.len() != h.len() {
			t.Fatalf("%s: wheel len %d, heap len %d", tag, w.len(), h.len())
		}
		if wp, hp := w.peekTime(), h.peekTime(); wp != hp {
			t.Fatalf("%s: peekTime wheel %v heap %v", tag, wp, hp)
		}
		we, he := w.pop(), h.pop()
		if we.at != he.at || we.seq != he.seq {
			t.Fatalf("%s: wheel popped (%v,%d), heap popped (%v,%d)",
				tag, we.at, we.seq, he.at, he.seq)
		}
	}
	if w.len() != 0 {
		t.Fatalf("%s: wheel retains %d events after heap drained", tag, w.len())
	}
}

// TestWheelMatchesHeapRandomStreams is the ordering property test: on
// random interleaved push/pop streams — including far-future (overflow)
// times, duplicate instants, and seqs pushed out of order — the wheel
// pops the exact sequence the reference binary heap does.
func TestWheelMatchesHeapRandomStreams(t *testing.T) {
	t.Parallel()
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var w timerWheel
		var h eventHeap
		var now Time
		seq := uint64(0)
		// Out-of-order seqs: occasionally skip seq numbers now and push
		// events carrying them later, after larger seqs are queued.
		type reserved struct {
			at  Time
			seq uint64
		}
		var pending []reserved

		ops := 300 + rng.Intn(700)
		for i := 0; i < ops; i++ {
			switch r := rng.Intn(10); {
			case r < 5: // push at a random horizon
				var d Time
				switch rng.Intn(4) {
				case 0:
					d = Time(rng.Intn(64)) // level 0
				case 1:
					d = Time(rng.Intn(1 << 12)) // level 1
				case 2:
					d = Time(rng.Intn(1 << 20)) // level 2-3
				case 3:
					d = wheelSpan + Time(rng.Intn(1<<26)) // overflow
				}
				e := event{at: now + d, seq: seq}
				seq++
				w.push(e)
				h.push(e)
			case r < 6: // reserve a seq for later fulfilment
				pending = append(pending, reserved{at: now + Time(rng.Intn(1<<14)), seq: seq})
				seq++
			case r < 8 && len(pending) > 0: // fulfil a reservation
				p := pending[0]
				pending = pending[1:]
				at := p.at
				if at < now {
					at = now
				}
				e := event{at: at, seq: p.seq}
				w.push(e)
				h.push(e)
			default: // pop (advances time, like the kernel loop)
				if h.len() == 0 {
					continue
				}
				if wp, hp := w.peekTime(), h.peekTime(); wp != hp {
					t.Fatalf("trial %d: peekTime wheel %v heap %v", trial, wp, hp)
				}
				we, he := w.pop(), h.pop()
				if we.at != he.at || we.seq != he.seq {
					t.Fatalf("trial %d: wheel popped (%v,%d), heap popped (%v,%d)",
						trial, we.at, we.seq, he.at, he.seq)
				}
				if we.at > now {
					now = we.at
				}
			}
			// Any unpushed reservation older than `now` is pushed at
			// `now`, so no push ever lands in the popped past.
			for len(pending) > 0 && pending[0].at <= now {
				p := pending[0]
				pending = pending[1:]
				e := event{at: now, seq: p.seq}
				w.push(e)
				h.push(e)
			}
		}
		for _, p := range pending {
			at := p.at
			if at < now {
				at = now
			}
			e := event{at: at, seq: p.seq}
			w.push(e)
			h.push(e)
		}
		drainCompare(t, "trial drain", &w, &h)
	}
}

// TestWheelPastPush exercises the front-buffer path: after the wheel
// has collected (and wheelTime advanced past t), a push at t must still
// pop in (at, seq) order — the Advance fast path does this.
func TestWheelPastPush(t *testing.T) {
	t.Parallel()
	var w timerWheel
	var h eventHeap
	push := func(at Time, seq uint64) {
		w.push(event{at: at, seq: seq})
		h.push(event{at: at, seq: seq})
	}
	push(100, 1)
	push(200, 2)
	if got := w.peekTime(); got != 100 { // collects; wheelTime passes 100
		t.Fatalf("peekTime = %v", got)
	}
	push(50, 3)  // before the collected batch
	push(100, 0) // same instant as batch head, smaller seq
	push(150, 4) // between batch head and the rest of the wheel
	drainCompare(t, "past-push", &w, &h)
}

// TestWheelCascade drives events far enough apart that every level and
// the overflow heap participate, with bursts at shared instants to
// check per-slot seq ordering across cascades.
func TestWheelCascade(t *testing.T) {
	t.Parallel()
	var w timerWheel
	var h eventHeap
	seq := uint64(0)
	for _, base := range []Time{0, 63, 64, 1 << 12, 1 << 18, wheelSpan - 1, wheelSpan, 3 * wheelSpan} {
		for j := 0; j < 5; j++ {
			e := event{at: base + Time(j%2), seq: seq}
			seq++
			w.push(e)
			h.push(e)
		}
	}
	drainCompare(t, "cascade", &w, &h)
}
