package cache

import (
	"fmt"
	"math/bits"
)

// blockIndex maps each resident block to the frame holding it: an
// open-addressing table sized once, at least twice the frame count, with
// Fibonacci-hashed homes, linear probing and backward-shift deletion.
// DESIGN.md ("Cache index and intrusive lists") gives the reasons.
type blockIndex struct {
	slots []idxSlot
	shift uint // 64 - log2(len(slots)): the hash's top bits pick the home
}

type idxSlot struct {
	block, frame int32 // frame holds the frame id + 1: the zero slot is empty
}

func newBlockIndex(frames int) blockIndex {
	lg := bits.Len(uint(2*frames - 1))
	return blockIndex{slots: make([]idxSlot, 1<<lg), shift: uint(64 - lg)}
}

func (x *blockIndex) home(block int32) int {
	return int(uint64(uint32(block)) * 0x9E3779B97F4A7C15 >> x.shift)
}

// find returns the slot holding block, or the empty slot ending its run.
func (x *blockIndex) find(block int32) int {
	i, mask := x.home(block), len(x.slots)-1
	for s := x.slots[i]; s.frame != 0 && s.block != block; s = x.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// get returns the frame holding block, or -1. Files past int32 ids are
// refused by the pattern generator and fs, so a wider id is a bug.
func (x *blockIndex) get(block int) int32 {
	if block != int(int32(block)) {
		panic(fmt.Sprintf("cache: block %d outside int32 ids", block))
	}
	return x.slots[x.find(int32(block))].frame - 1
}

// put records that frame holds block, which must be absent.
func (x *blockIndex) put(block, frame int32) {
	i := x.find(block)
	if x.slots[i].frame != 0 {
		panic(fmt.Sprintf("cache: block %d indexed twice", block))
	}
	x.slots[i] = idxSlot{block: block, frame: frame + 1}
}

// del removes block, which must be present. Each later entry of the run
// moves back into the hole unless its home lies after the hole.
func (x *blockIndex) del(block int32) {
	i, mask := x.find(block), len(x.slots)-1
	if x.slots[i].frame == 0 {
		panic(fmt.Sprintf("cache: block %d not in the index", block))
	}
	for j := (i + 1) & mask; x.slots[j].frame != 0; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].block))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = idxSlot{}
}

// audit checks the table both ways: each entry names a frame holding its
// key, with no empty slot between its home and it; each such frame is found.
func (x *blockIndex) audit(arena []Buffer) error {
	mask, entries, held := len(x.slots)-1, 0, 0
	for i, s := range x.slots {
		if s.frame == 0 {
			continue
		}
		entries++
		if f := int(s.frame) - 1; f < 0 || f >= len(arena) || arena[f].block != s.block {
			return fmt.Errorf("cache: block index slot %d names frame %d, which does not hold block %d", i, f, s.block)
		}
		for j := x.home(s.block); j != i; j = (j + 1) & mask {
			if x.slots[j].frame == 0 {
				return fmt.Errorf("cache: block %d sits past an empty slot after its home", s.block)
			}
		}
	}
	for f := range arena {
		if b := arena[f].block; b >= 0 && x.get(int(b)) != int32(f) {
			return fmt.Errorf("cache: buffer %d not in the block index for block %d", f, b)
		} else if b >= 0 {
			held++
		}
	}
	if entries != held {
		return fmt.Errorf("cache: block index holds %d entries for %d frames holding a block", entries, held)
	}
	return nil
}
