package cache

import "sync"

// blockIndex is the cache's block → buffer map, split into power-of-two
// shards with per-shard locks. At paper scale (tens of frames) it
// collapses to a single shard and costs one uncontended lock per
// operation; at cluster scale (100k–1M nodes, hundreds of thousands of
// frames) concurrent lookups spread across shards instead of
// serializing on one map. Only Lookup/Contains may run concurrently
// (mutations stay on the kernel's serial program points), so readers
// take RLocks. The simulation kernel itself is serial, so no run
// makes concurrent lookups today; whether the locks stay is a
// separate, measured decision.
//
// Shard choice hashes the block number with a Fibonacci multiplier:
// block numbers are dense small integers, and taking low bits directly
// would stripe adjacent blocks — which the layouts deliberately spread
// across disks — into adjacent shards, defeating the point.
type blockIndex struct {
	mask   uint32
	shards []idxShard
}

type idxShard struct {
	mu sync.RWMutex
	m  map[int]*Buffer
	_  [32]byte // pad to a cache line: neighbouring locks must not false-share
}

// maxIndexShards bounds the shard count: beyond a few hundred shards
// the per-shard maps are so small that more sharding only adds memory.
const maxIndexShards = 512

// init sizes the index for a cache of total frames: one shard per ~256
// frames, clamped to [1, maxIndexShards], rounded up to a power of two.
func (x *blockIndex) init(total int) {
	n := 1
	for n < total/256 && n < maxIndexShards {
		n <<= 1
	}
	x.mask = uint32(n - 1)
	x.shards = make([]idxShard, n)
	for i := range x.shards {
		x.shards[i].m = make(map[int]*Buffer, total/n+1)
	}
}

func (x *blockIndex) shard(block int) *idxShard {
	return &x.shards[(uint32(block)*2654435761)&x.mask]
}

func (x *blockIndex) get(block int) *Buffer {
	s := x.shard(block)
	s.mu.RLock()
	b := s.m[block]
	s.mu.RUnlock()
	return b
}

func (x *blockIndex) set(block int, b *Buffer) {
	s := x.shard(block)
	s.mu.Lock()
	s.m[block] = b
	s.mu.Unlock()
}

func (x *blockIndex) del(block int) {
	s := x.shard(block)
	s.mu.Lock()
	delete(s.m, block)
	s.mu.Unlock()
}

// size returns the number of mapped blocks (audit only — not a hot
// path, takes every shard lock in turn).
func (x *blockIndex) size() int {
	n := 0
	for i := range x.shards {
		s := &x.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// freeList is an intrusive LIFO stack of Invalid frames threaded
// through Buffer.next, replacing the per-class []*Buffer slices: no
// backing array to grow, no pointer slab for the GC to scan, and O(1)
// push/pop with the same claim order as the slice it replaced (both
// pop the most recently freed frame).
type freeList struct {
	head *Buffer
	len  int
}

func (f *freeList) push(b *Buffer) {
	if b.onFree {
		panic("cache: buffer already on free list")
	}
	b.onFree = true
	b.next = f.head
	f.head = b
	f.len++
}

func (f *freeList) pop() *Buffer {
	b := f.head
	if b == nil {
		return nil
	}
	f.head = b.next
	b.next = nil
	b.onFree = false
	f.len--
	return b
}
