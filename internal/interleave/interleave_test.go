package interleave

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestRoundRobin(t *testing.T) {
	l := New(2000, 20, 1024)
	for b := 0; b < 40; b++ {
		if got := l.DiskFor(b); got != b%20 {
			t.Fatalf("DiskFor(%d) = %d, want %d", b, got, b%20)
		}
	}
	if l.PhysicalBlock(45) != 2 {
		t.Fatalf("PhysicalBlock(45) = %d, want 2", l.PhysicalBlock(45))
	}
	d, p := l.Locate(45)
	if d != 5 || p != 2 {
		t.Fatalf("Locate(45) = %d,%d", d, p)
	}
}

func TestAccessors(t *testing.T) {
	l := New(100, 4, 1024)
	if l.Blocks() != 100 || l.Disks() != 4 || l.BlockSize() != 1024 {
		t.Fatal("accessors wrong")
	}
	if l.SizeBytes() != 102400 {
		t.Fatalf("SizeBytes = %d", l.SizeBytes())
	}
}

func TestValid(t *testing.T) {
	l := New(10, 2, 1)
	if l.Valid(-1) || l.Valid(10) {
		t.Fatal("Valid accepted out-of-range block")
	}
	if !l.Valid(0) || !l.Valid(9) {
		t.Fatal("Valid rejected in-range block")
	}
}

func TestDiskCounts(t *testing.T) {
	l := New(10, 4, 1) // blocks 0..9 → disks 0,1,2,3,0,1,2,3,0,1
	if got := fmt.Sprint(l.DiskCounts()); got != "[3 3 2 2]" {
		t.Fatalf("DiskCounts = %s, want [3 3 2 2]", got)
	}
	// The closed forms agree with a count of every block's disk,
	// including segmented layouts that leave trailing disks empty.
	for _, s := range Strategies {
		for blocks := 1; blocks <= 70; blocks++ {
			for disks := 1; disks <= 24; disks++ {
				l := NewWithStrategy(s, blocks, disks, 1)
				want := make([]int, disks)
				for b := 0; b < blocks; b++ {
					want[l.DiskFor(b)]++
				}
				if got := l.DiskCounts(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%v blocks=%d disks=%d: DiskCounts = %v, want %v", s, blocks, disks, got, want)
				}
			}
		}
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { New(0, 1, 1) },
		func() { New(1, 0, 1) },
		func() { New(1, 1, 0) },
		func() { New(10, 2, 1).DiskFor(10) },
		func() { New(10, 2, 1).PhysicalBlock(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: Locate is a bijection — every (disk, physical) pair maps
// back to a unique logical block, and consecutive blocks land on
// distinct disks when disks > 1.
func TestLocateBijection(t *testing.T) {
	check := func(blocksRaw uint16, disksRaw uint8) bool {
		blocks := int(blocksRaw%500) + 1
		disks := int(disksRaw%32) + 1
		l := New(blocks, disks, 1024)
		seen := map[[2]int]bool{}
		for b := 0; b < blocks; b++ {
			d, p := l.Locate(b)
			if d < 0 || d >= disks || p < 0 {
				return false
			}
			key := [2]int{d, p}
			if seen[key] {
				return false
			}
			seen[key] = true
			if b > 0 && disks > 1 && l.DiskFor(b) == l.DiskFor(b-1) {
				return false
			}
		}
		// per-disk counts add up
		total := 0
		for _, n := range l.DiskCounts() {
			total += n
		}
		return total == blocks
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyStringAndParse(t *testing.T) {
	for _, s := range Strategies {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Fatal("ParseStrategy accepted unknown name")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy should format")
	}
}

func TestSegmentedLayout(t *testing.T) {
	l := NewWithStrategy(Segmented, 100, 4, 1024)
	if l.Strategy() != Segmented {
		t.Fatal("strategy accessor wrong")
	}
	// Blocks 0..24 on disk 0, 25..49 on disk 1, ...
	for b := 0; b < 100; b++ {
		wantDisk := b / 25
		d, p := l.Locate(b)
		if d != wantDisk || p != b%25 {
			t.Fatalf("Locate(%d) = %d,%d, want %d,%d", b, d, p, wantDisk, b%25)
		}
	}
	if got := fmt.Sprint(l.DiskCounts()); got != "[25 25 25 25]" {
		t.Fatalf("DiskCounts = %s", got)
	}
}

func TestSegmentedSequentialScanHitsOneDisk(t *testing.T) {
	l := NewWithStrategy(Segmented, 80, 4, 1024)
	// A window of consecutive blocks inside one segment maps to a
	// single disk — the contention the paper's interleaving avoids.
	for b := 1; b < 20; b++ {
		if l.DiskFor(b) != l.DiskFor(b-1) {
			t.Fatalf("blocks %d,%d on different disks within a segment", b-1, b)
		}
	}
}

func TestHashedLayoutSpread(t *testing.T) {
	l := NewWithStrategy(Hashed, 2000, 20, 1024)
	counts := make([]int, 20)
	for b := 0; b < 2000; b++ {
		d, p := l.Locate(b)
		if d < 0 || d >= 20 || p < 0 {
			t.Fatalf("Locate(%d) = %d,%d", b, d, p)
		}
		counts[d]++
	}
	if got, want := fmt.Sprint(l.DiskCounts()), fmt.Sprint(counts); got != want {
		t.Fatalf("DiskCounts = %s, want %s", got, want)
	}
	// Roughly uniform: each disk within 50% of the fair share.
	for d, c := range counts {
		if c < 50 || c > 150 {
			t.Fatalf("hashed disk %d holds %d blocks (fair share 100)", d, c)
		}
	}
	// Deterministic.
	l2 := NewWithStrategy(Hashed, 2000, 20, 1024)
	for b := 0; b < 100; b++ {
		if l.DiskFor(b) != l2.DiskFor(b) {
			t.Fatal("hashed layout nondeterministic")
		}
	}
}

func TestNewWithStrategyPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown strategy did not panic")
		}
	}()
	NewWithStrategy(Strategy(42), 10, 2, 1024)
}
