package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sortedQueue is the reference the event heap is checked against: a
// slice kept in (at, seq) order by insertion.
type sortedQueue []event

func (q *sortedQueue) push(e event) {
	i := sort.Search(len(*q), func(i int) bool {
		o := (*q)[i]
		return o.at > e.at || (o.at == e.at && o.seq > e.seq)
	})
	*q = append(*q, event{})
	copy((*q)[i+1:], (*q)[i:])
	(*q)[i] = e
}

func (q *sortedQueue) pop() event {
	e := (*q)[0]
	*q = (*q)[1:]
	return e
}

// popCompare pops one event from each queue and asserts the same
// (at, seq). The records carry no waiter here, so order is the whole
// contract.
func popCompare(t *testing.T, tag string, h *eventHeap, ref *sortedQueue) event {
	t.Helper()
	if h.len() != len(*ref) {
		t.Fatalf("%s: heap len %d, reference len %d", tag, h.len(), len(*ref))
	}
	if hp, rp := h.peekTime(), (*ref)[0].at; hp != rp {
		t.Fatalf("%s: peekTime heap %v reference %v", tag, hp, rp)
	}
	he, re := h.pop(), ref.pop()
	if he.at != re.at || he.seq != re.seq {
		t.Fatalf("%s: heap popped (%v,%d), reference popped (%v,%d)",
			tag, he.at, he.seq, re.at, re.seq)
	}
	return he
}

// TestEventHeapMatchesSortedReference is the ordering property test:
// the heap pops the exact (at, seq) sequence a sorted reference does —
// on random interleaved push/pop streams with same-instant ties,
// far-future times and seqs pushed out of order, on pushes that land
// before an already-peeked head (Advance's fast path does this), and
// on same-instant bursts spread across many orders of magnitude.
func TestEventHeapMatchesSortedReference(t *testing.T) {
	t.Parallel()
	t.Run("random-streams", func(t *testing.T) {
		for trial := 0; trial < 200; trial++ {
			randomStream(t, trial)
		}
	})
	t.Run("push-after-peek", func(t *testing.T) {
		var h eventHeap
		var ref sortedQueue
		push := func(at Time, seq uint64) {
			h.push(event{at: at, seq: seq})
			ref.push(event{at: at, seq: seq})
		}
		push(100, 1)
		push(200, 2)
		if got := h.peekTime(); got != 100 {
			t.Fatalf("peekTime = %v", got)
		}
		push(50, 3)  // before the peeked head
		push(100, 0) // same instant as the head, smaller seq
		push(150, 4) // between the head and the rest
		for len(ref) > 0 {
			popCompare(t, "push-after-peek", &h, &ref)
		}
	})
	t.Run("bursts", func(t *testing.T) {
		var h eventHeap
		var ref sortedQueue
		seq := uint64(0)
		for _, base := range []Time{3 << 24, 0, 1 << 24, 63, 1<<24 - 1, 64, 1 << 18, 1 << 12} {
			for j := 0; j < 5; j++ {
				e := event{at: base + Time(j%2), seq: seq}
				seq++
				h.push(e)
				ref.push(e)
			}
		}
		for len(ref) > 0 {
			popCompare(t, "bursts", &h, &ref)
		}
	})
}

// randomStream drives one seeded random push/pop stream through the
// heap and the reference, then drains both.
func randomStream(t *testing.T, trial int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(trial)))
	var h eventHeap
	var ref sortedQueue
	var now Time
	seq := uint64(0)
	push := func(e event) {
		h.push(e)
		ref.push(e)
	}
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
			switch rng.Intn(5) {
			case 0:
				d = 0 // same instant as now
			case 1:
				d = Time(rng.Intn(64))
			case 2:
				d = Time(rng.Intn(1 << 12))
			case 3:
				d = Time(rng.Intn(1 << 20))
			case 4:
				d = Time(1<<24) + Time(rng.Intn(1<<26)) // far future
			}
			push(event{at: now + d, seq: seq})
			seq++
		case r < 6: // reserve a seq for later fulfilment
			pending = append(pending, reserved{at: now + Time(rng.Intn(1<<14)), seq: seq})
			seq++
		case r < 8 && len(pending) > 0: // fulfil a reservation
			p := pending[0]
			pending = pending[1:]
			push(event{at: max(p.at, now), seq: p.seq})
		default: // pop (advances time, like the kernel loop)
			if h.len() == 0 {
				continue
			}
			now = max(now, popCompare(t, fmt.Sprintf("trial %d", trial), &h, &ref).at)
		}
		// Any unpushed reservation older than `now` is pushed at
		// `now`, so no push ever lands in the popped past.
		for len(pending) > 0 && pending[0].at <= now {
			push(event{at: now, seq: pending[0].seq})
			pending = pending[1:]
		}
	}
	for _, p := range pending {
		push(event{at: max(p.at, now), seq: p.seq})
	}
	for len(ref) > 0 {
		popCompare(t, fmt.Sprintf("trial %d drain", trial), &h, &ref)
	}
	if h.len() != 0 {
		t.Fatalf("trial %d: heap retains %d events after the reference drained", trial, h.len())
	}
}

// TestEventHeapReleasesOnDrain checks the burst rule: a heap that
// drains after growing past heapKeep drops its backing array, and a
// small one keeps it for reuse.
func TestEventHeapReleasesOnDrain(t *testing.T) {
	t.Parallel()
	for _, n := range []int{10, 2 * heapKeep} {
		var h eventHeap
		for i := 0; i < n; i++ {
			h.push(event{at: Time(n - i), seq: uint64(i)})
		}
		for h.len() > 0 {
			h.pop()
		}
		if released := h.items == nil; released != (n > heapKeep) {
			t.Errorf("%d events: backing array released = %v, cap %d", n, released, cap(h.items))
		}
	}
}
