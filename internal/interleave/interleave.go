// Package interleave implements file layouts over parallel disks. The
// paper's testbed uses the Bridge-style interleaved ("declustered")
// layout: consecutive logical blocks are assigned to devices in
// round-robin fashion so that a sequential scan touches every disk in
// turn and can proceed fully in parallel. Two alternatives are provided
// for the §VI "variations on file system organization" study: a
// segmented layout (contiguous runs of the file per disk, the naive
// uniprocessor-style allocation) and a hashed declustering (spread, but
// order-free).
package interleave

import "fmt"

// Strategy selects how logical blocks map to disks.
type Strategy int

// Layout strategies.
const (
	// RoundRobin assigns block b to disk b mod d — the paper's layout.
	RoundRobin Strategy = iota
	// Segmented stores contiguous runs of ceil(blocks/d) blocks per
	// disk, like a uniprocessor file system concatenated across disks.
	Segmented
	// Hashed scatters blocks pseudo-randomly (Fibonacci hashing):
	// declustered like round-robin but with no relationship between
	// logical adjacency and disk adjacency.
	Hashed
)

// Strategies lists all layout strategies.
var Strategies = []Strategy{RoundRobin, Segmented, Hashed}

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case Segmented:
		return "segmented"
	case Hashed:
		return "hashed"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a strategy name to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	for _, st := range Strategies {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("interleave: unknown strategy %q", s)
}

// Layout maps logical file blocks to (disk, physical block) pairs.
type Layout struct {
	strategy  Strategy
	blocks    int // logical blocks in the file
	disks     int
	blockSize int // bytes, informational
	segment   int // blocks per disk under Segmented
}

// New returns a round-robin layout for a file of the given number of
// logical blocks over the given number of disks — the paper's
// configuration.
func New(blocks, disks, blockSize int) *Layout {
	return NewWithStrategy(RoundRobin, blocks, disks, blockSize)
}

// NewWithStrategy returns a layout using the given placement strategy.
func NewWithStrategy(strategy Strategy, blocks, disks, blockSize int) *Layout {
	if blocks <= 0 {
		panic(fmt.Sprintf("interleave: non-positive file size %d blocks", blocks))
	}
	if disks <= 0 {
		panic(fmt.Sprintf("interleave: non-positive disk count %d", disks))
	}
	if blockSize <= 0 {
		panic(fmt.Sprintf("interleave: non-positive block size %d", blockSize))
	}
	switch strategy {
	case RoundRobin, Segmented, Hashed:
	default:
		panic(fmt.Sprintf("interleave: unknown strategy %d", int(strategy)))
	}
	return &Layout{
		strategy:  strategy,
		blocks:    blocks,
		disks:     disks,
		blockSize: blockSize,
		segment:   (blocks + disks - 1) / disks,
	}
}

// Strategy returns the placement strategy.
func (l *Layout) Strategy() Strategy { return l.strategy }

// fibHash spreads block numbers uniformly (Fibonacci hashing with the
// 64-bit golden ratio constant).
func fibHash(b int) uint64 { return uint64(b) * 0x9E3779B97F4A7C15 }

// Blocks returns the number of logical blocks in the file.
func (l *Layout) Blocks() int { return l.blocks }

// Disks returns the number of disks the file is spread over.
func (l *Layout) Disks() int { return l.disks }

// BlockSize returns the block size in bytes.
func (l *Layout) BlockSize() int { return l.blockSize }

// SizeBytes returns the total file size.
func (l *Layout) SizeBytes() int64 { return int64(l.blocks) * int64(l.blockSize) }

// Valid reports whether b is a legal logical block number.
func (l *Layout) Valid(b int) bool { return b >= 0 && b < l.blocks }

// DiskFor returns the disk holding logical block b.
func (l *Layout) DiskFor(b int) int {
	d, _ := l.Locate(b)
	return d
}

// PhysicalBlock returns the block index within its disk's region for
// logical block b.
func (l *Layout) PhysicalBlock(b int) int {
	_, p := l.Locate(b)
	return p
}

// Locate returns both coordinates of logical block b.
func (l *Layout) Locate(b int) (diskID, physical int) {
	l.check(b)
	switch l.strategy {
	case Segmented:
		return b / l.segment, b % l.segment
	case Hashed:
		// Disk choice is hashed; the position within the disk keeps the
		// logical order (a per-disk slot counter would need O(blocks)
		// state for no behavioural difference in the disk model).
		return int(fibHash(b) % uint64(l.disks)), b / l.disks
	}
	return b % l.disks, b / l.disks
}

// DiskCounts returns how many of the file's blocks live on each disk,
// indexed by disk. Round-robin and segmented placement have closed
// forms; a hashed layout is counted in one pass over the blocks.
func (l *Layout) DiskCounts() []int {
	n := make([]int, l.disks)
	switch l.strategy {
	case RoundRobin:
		for d := range n {
			n[d] = l.blocks / l.disks
			if d < l.blocks%l.disks {
				n[d]++
			}
		}
	case Segmented:
		for d := range n {
			n[d] = min(l.segment, max(l.blocks-d*l.segment, 0))
		}
	case Hashed:
		for b := 0; b < l.blocks; b++ {
			n[l.DiskFor(b)]++
		}
	}
	return n
}

func (l *Layout) check(b int) {
	if !l.Valid(b) {
		panic(fmt.Sprintf("interleave: block %d out of range [0,%d)", b, l.blocks))
	}
}
