package cache

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// Seeded corruption of the cache's internal bookkeeping must be caught
// by Audit with a message naming the inconsistency — this is what the
// runtime invariant auditor's "cache-consistent" check relies on.
func TestAuditCatchesSeededCorruption(t *testing.T) {
	cases := []struct {
		name    string
		want    string
		corrupt func(c *Cache)
	}{
		{
			name: "free buffer in service",
			want: "corrupt free buffer",
			corrupt: func(c *Cache) {
				c.free[DemandClass].head.state = Ready
			},
		},
		{
			name: "mapped buffer missing from the index",
			want: "not in the block index",
			corrupt: func(c *Cache) {
				c.AllocateDemand(0, 7)
				c.idx.del(7)
			},
		},
		{
			name: "index entry past an empty slot after its home",
			want: "sits past an empty slot",
			corrupt: func(c *Cache) {
				c.AllocateDemand(0, 7)
				i := c.idx.find(7)
				c.idx.slots[(i+1)&(len(c.idx.slots)-1)], c.idx.slots[i] = c.idx.slots[i], idxSlot{}
			},
		},
		{
			name: "index entry naming a frame that holds another block",
			want: "does not hold block",
			corrupt: func(c *Cache) {
				c.AllocateDemand(0, 7)
				c.AllocateDemand(0, 9)
				i, j := c.idx.find(7), c.idx.find(9)
				c.idx.slots[i].frame, c.idx.slots[j].frame = c.idx.slots[j].frame, c.idx.slots[i].frame
			},
		},
		{
			name: "block indexed twice",
			want: "holds 2 entries for 1 frames holding a block",
			corrupt: func(c *Cache) {
				c.AllocateDemand(0, 7)
				i := c.idx.find(7)
				c.idx.slots[(i+1)&(len(c.idx.slots)-1)] = c.idx.slots[i]
			},
		},
		{
			name: "prefetched flag on a pinned demand buffer",
			want: "pinned",
			corrupt: func(c *Cache) {
				buf := c.AllocateDemand(0, 9)
				buf.prefetched = true
			},
		},
		{
			name: "unpinned frame keeps its fill source",
			want: "still holds its fill source",
			corrupt: func(c *Cache) {
				buf := c.AllocateDemand(0, 11)
				ev := sim.NewEvent(c.k)
				c.BeginFetchFrom(buf, ev, c.k.Now(), &failSource{})
				ev.Fire()
				buf.pins = 0 // dropped without Unpin, which releases the source
			},
		},
		{
			name: "failed frame whose source reports no error",
			want: "holds no failed fill source",
			corrupt: func(c *Cache) {
				src := &failSource{err: errBoom}
				buf := c.AllocateDemand(0, 13)
				ev := sim.NewEvent(c.k)
				c.BeginFetchFrom(buf, ev, c.k.Now(), src)
				ev.Fire() // pinned, so the frame parks in Failed
				src.err = nil
			},
		},
		{
			name: "ready frame whose held source reports an error",
			want: "holds a failed fill source",
			corrupt: func(c *Cache) {
				src := &failSource{}
				buf := c.AllocateDemand(0, 15)
				ev := sim.NewEvent(c.k)
				c.BeginFetchFrom(buf, ev, c.k.Now(), src)
				ev.Fire() // pinned, so the Ready frame keeps its source
				src.err = errBoom
			},
		},
		{
			name: "retired buffer back in service",
			want: "retired buffer",
			corrupt: func(c *Cache) {
				if c.Squeeze(1) != 1 {
					t.Fatal("squeeze retired nothing")
				}
				for i := range c.arena {
					b := &c.arena[i]
					if b.retired {
						b.list = onLRU
						return
					}
				}
				t.Fatal("no retired buffer found")
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := newTestCache(2, 2, 1, 4)
			if err := c.Audit(); err != nil {
				t.Fatalf("fresh cache fails audit: %v", err)
			}
			tc.corrupt(c)
			err := c.Audit()
			if err == nil {
				t.Fatal("corruption passed the audit")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit error %q does not mention %q", err, tc.want)
			}
			// CheckInvariants is the panicking wrapper the engine uses.
			defer func() {
				if recover() == nil {
					t.Fatal("CheckInvariants did not panic on corruption")
				}
			}()
			c.CheckInvariants()
		})
	}
}
