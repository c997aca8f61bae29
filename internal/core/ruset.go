package core

import "repro/internal/cache"

// ruSet is a processor's recently-used set: the FIFO of buffers the
// process currently has pinned. The paper uses size one, a variation of
// toss-immediately — the block a process just finished with is released
// as soon as it moves on to the next — while larger sizes are available
// for the RU-set-size ablation. The set's size is the capacity of bufs,
// a window of one slab shared by every node (Run), so the set never
// allocates.
type ruSet struct {
	bufs []*cache.Buffer
}

// makeRoom unpins the oldest entries until there is room for one more,
// so it is called before acquiring a new buffer. It shifts the rest down
// in place, so the backing array is reused by the next add.
func (r *ruSet) makeRoom(c *cache.Cache) {
	for len(r.bufs) >= cap(r.bufs) {
		c.Unpin(r.bufs[0])
		r.bufs = r.bufs[:copy(r.bufs, r.bufs[1:])]
	}
}

// add records a newly pinned buffer; makeRoom has left room for it.
func (r *ruSet) add(buf *cache.Buffer) {
	r.bufs = append(r.bufs, buf)
}

// drain unpins everything; called when the process finishes (a
// finished node may still take over a killed node's reads).
func (r *ruSet) drain(c *cache.Cache) {
	for _, b := range r.bufs {
		c.Unpin(b)
	}
	clear(r.bufs)
	r.bufs = r.bufs[:0]
}
