// Package fs builds a small general-purpose parallel file system on the
// library's substrates: multiple named files, each interleaved over a
// shared disk array, read through a shared block cache with optional
// sequential readahead. It is the "what a practical system would look
// like" counterpart to the core testbed — where internal/core reproduces
// the paper's controlled experiments, this package is the reusable
// Bridge-style file system a downstream simulation would embed.
package fs

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/interleave"
	"repro/internal/memory"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Options configures a FileSystem.
type Options struct {
	// Disks is the number of parallel independent disks.
	Disks int
	// DiskProfile is the per-disk service model.
	DiskProfile disk.Profile
	// BlockSize is the file block size in bytes.
	BlockSize int
	// CacheFrames is the number of demand-class buffer frames.
	CacheFrames int
	// ReadaheadFrames is the number of prefetch-class frames; zero
	// disables readahead entirely.
	ReadaheadFrames int
	// Readahead is the sequential readahead depth per read: after a
	// read of block b, blocks b+1..b+Readahead are scheduled if absent.
	Readahead int
	// Layout is the block placement strategy (round-robin by default).
	Layout interleave.Strategy
	// Memory is the overhead cost model; zero-value charges (almost)
	// nothing.
	Memory memory.Model
	// Nodes is the number of client nodes, for cache accounting.
	Nodes int
	// Faults configures deterministic fault injection on the disk
	// array. The zero value injects nothing.
	Faults fault.Config
	// Retry is the virtual-time backoff schedule for failed reads and
	// write-backs. Zero value with Faults enabled means
	// fault.DefaultRetry().
	Retry fault.RetryPolicy
}

// OptionError is the typed validation error returned for an invalid
// Options field: it names the field and the reason, so callers can
// match on the field programmatically rather than parsing a message.
type OptionError struct {
	Field  string
	Reason string
}

// Error formats the validation failure.
func (e *OptionError) Error() string {
	return fmt.Sprintf("fs: invalid option %s: %s", e.Field, e.Reason)
}

// Validate checks the options, returning an *OptionError (or a fault
// configuration error) for the first invalid field. Zero values mean
// "use the default" throughout and are always valid; what Validate
// rejects are explicitly nonsensical settings — the negative counts
// and impossible combinations that withDefaults used to clamp
// silently.
func (o *Options) Validate() error {
	neg := func(field string, v int) *OptionError {
		return &OptionError{Field: field, Reason: fmt.Sprintf("must not be negative, got %d", v)}
	}
	if o.Disks < 0 {
		return neg("Disks", o.Disks)
	}
	if o.BlockSize < 0 {
		return neg("BlockSize", o.BlockSize)
	}
	if o.CacheFrames < 0 {
		return neg("CacheFrames", o.CacheFrames)
	}
	if o.ReadaheadFrames < 0 {
		return neg("ReadaheadFrames", o.ReadaheadFrames)
	}
	if o.Readahead < 0 {
		return neg("Readahead", o.Readahead)
	}
	if o.Nodes < 0 {
		return neg("Nodes", o.Nodes)
	}
	if o.DiskProfile.Access < 0 || o.DiskProfile.SeekPerBlock < 0 || o.DiskProfile.MaxSeek < 0 {
		return &OptionError{Field: "DiskProfile", Reason: "negative service-time parameter"}
	}
	if o.Readahead > 0 && o.ReadaheadFrames == 0 {
		return &OptionError{Field: "Readahead", Reason: "positive depth needs ReadaheadFrames > 0"}
	}
	if err := o.Faults.Validate(); err != nil {
		return err
	}
	if err := o.Retry.Validate(); err != nil {
		return err
	}
	if o.Faults.KillAt > 0 {
		if o.Faults.KillDisk >= max(o.Disks, 1) {
			return &OptionError{Field: "Faults.KillDisk", Reason: fmt.Sprintf("disk %d out of range", o.Faults.KillDisk)}
		}
		if max(o.Disks, 1) < 2 {
			return &OptionError{Field: "Faults.KillAt", Reason: "killing the only disk leaves no survivor to remap onto"}
		}
	}
	return nil
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Disks == 0 {
		out.Disks = 1
	}
	if out.DiskProfile.Access == 0 {
		out.DiskProfile.Access = 30 * sim.Millisecond
	}
	if out.BlockSize == 0 {
		out.BlockSize = 1024
	}
	if out.CacheFrames == 0 {
		out.CacheFrames = 4 * out.Disks
	}
	if out.Nodes == 0 {
		out.Nodes = 1
	}
	if out.Faults.Enabled() && !out.Retry.Enabled() {
		out.Retry = fault.DefaultRetry()
	}
	return out
}

// FileSystem is a shared parallel file system instance.
type FileSystem struct {
	k     *sim.Kernel
	opts  Options
	disks *disk.Array
	bc    *cache.Cache
	track memory.Tracker

	files     map[string]*File
	nextBase  int   // next global block id
	diskAlloc []int // next physical block per disk

	// Write-behind bookkeeping. Finished write-behind records wait on
	// wbFree for reuse; the list lives for one kernel run and is dropped
	// at its end (see fsTrim), so a file system kept after its run
	// retains none of them.
	pendingWrites int
	writesDrained *sim.WaitQueue
	writesIssued  int64
	wbFree        []*writeback

	// submitted wakes the lookups that found a readahead frame claimed
	// but not yet submitted (see lookup).
	submitted *sim.WaitQueue

	// Fault machinery (nil/zero when Options.Faults is inert).
	inj     *fault.Injector
	retry   fault.RetryPolicy
	wbRetry *rng.Source // jitter stream for write-back retries
	fstats  Faults
}

// Faults counts the file system's recovery activity under fault
// injection. All zero on a fault-free run.
type Faults struct {
	// ReadRetries counts failed read fills that were retried.
	ReadRetries int64
	// WriteRetries counts failed write-backs that were resubmitted.
	WriteRetries int64
	// WritesDropped counts write-backs abandoned after the retry
	// policy's MaxAttempts (unlimited policies never drop).
	WritesDropped int64
	// DegradedReads counts requests remapped off a dead disk onto a
	// survivor.
	DegradedReads int64
}

// New creates an empty file system. It returns the typed validation
// error of Options.Validate for nonsensical settings.
func New(k *sim.Kernel, opts Options) (*FileSystem, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	fs := &FileSystem{
		k:     k,
		opts:  o,
		disks: disk.NewArray(k, o.Disks, o.DiskProfile, disk.FIFO),
		files: make(map[string]*File),
		bc: cache.New(k, cache.Options{
			DemandFrames:   o.CacheFrames,
			PrefetchFrames: o.ReadaheadFrames,
			Nodes:          o.Nodes,
			// Readahead is speculative; mistakes must be evictable.
			EvictablePrefetched: true,
		}),
		diskAlloc: make([]int, o.Disks),
	}
	k.OnRunEnd((*fsTrim)(fs))
	fs.writesDrained = sim.NewWaitQueue(k).SetLabel("write-behind drain")
	fs.submitted = sim.NewWaitQueue(k).SetLabel("a readahead submit")
	if o.Faults.Enabled() {
		fs.inj = fault.New(o.Faults, o.Disks)
		fs.retry = o.Retry
		// Stream index o.Nodes is reserved for write-back jitter;
		// handles use 0..Nodes-1.
		fs.wbRetry = fs.inj.RetryStream(o.Nodes)
		fs.disks.SetFaults(fs.inj)
	}
	return fs, nil
}

// MustNew is New for callers with known-good options (tests,
// examples); it panics on a validation error.
func MustNew(k *sim.Kernel, opts Options) *FileSystem {
	fs, err := New(k, opts)
	if err != nil {
		panic(err)
	}
	return fs
}

// CacheStats returns the shared cache's activity counters.
func (fs *FileSystem) CacheStats() cache.Stats { return fs.bc.Stats() }

// PendingWrites returns the number of write-backs still in flight.
func (fs *FileSystem) PendingWrites() int { return fs.pendingWrites }

// WritesIssued returns the total disk writes started.
func (fs *FileSystem) WritesIssued() int64 { return fs.writesIssued }

// DiskStats returns merged disk response statistics (ms).
func (fs *FileSystem) DiskStats() (served int64, meanResponseMillis float64) {
	s := fs.disks.ResponseStats()
	return fs.disks.TotalServed(), s.Mean()
}

// FaultStats returns the file system's recovery counters (all zero on
// a fault-free run).
func (fs *FileSystem) FaultStats() Faults { return fs.fstats }

// DiskFaultStats returns injected-fault counters aggregated across the
// disk array.
func (fs *FileSystem) DiskFaultStats() disk.FaultStats { return fs.disks.FaultStats() }

// AliveDisks returns how many disks are still serving requests.
func (fs *FileSystem) AliveDisks() int { return fs.disks.AliveCount() }

// File is one named, interleaved file.
type File struct {
	fs     *FileSystem
	name   string
	layout *interleave.Layout
	base   int   // global id of logical block 0
	phys   []int // physical base per disk
}

// Create allocates a new file of the given number of blocks. It fails
// if the name exists or blocks is not positive.
func (fs *FileSystem) Create(name string, blocks int) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("fs: file %q already exists", name)
	}
	if blocks <= 0 {
		return nil, fmt.Errorf("fs: file %q needs a positive size, got %d", name, blocks)
	}
	// Files share one block id space, which the cache keys as int32.
	if blocks-1 > math.MaxInt32-fs.nextBase {
		return nil, fmt.Errorf("fs: file %q of %d blocks would pass block id %d", name, blocks, math.MaxInt32)
	}
	f := &File{
		fs:     fs,
		name:   name,
		layout: interleave.NewWithStrategy(fs.opts.Layout, blocks, fs.opts.Disks, fs.opts.BlockSize),
		base:   fs.nextBase,
		phys:   make([]int, fs.opts.Disks),
	}
	fs.nextBase += blocks
	for d, n := range f.layout.DiskCounts() {
		f.phys[d] = fs.diskAlloc[d]
		fs.diskAlloc[d] += n
	}
	fs.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (fs *FileSystem) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: file %q does not exist", name)
	}
	return f, nil
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Blocks returns the file's length in blocks.
func (f *File) Blocks() int { return f.layout.Blocks() }

// SizeBytes returns the file's length in bytes.
func (f *File) SizeBytes() int64 { return f.layout.SizeBytes() }

// globalID maps a logical block to its cache key.
func (f *File) globalID(block int) int { return f.base + block }

// locate maps a logical block to (disk, absolute physical block).
func (f *File) locate(block int) (diskID, phys int) {
	d, p := f.layout.Locate(block)
	return d, f.phys[d] + p
}

// Handle is a per-client session on a file, tracking the buffer the
// client currently holds (released on the next read or Close) — the
// toss-immediately discipline of the testbed.
type Handle struct {
	file     *File
	node     int
	held     *cache.Buffer
	retryRNG *rng.Source // jitter stream (nil without fault injection)
}

// OpenHandle returns a read handle for the client node.
func (f *File) OpenHandle(node int) *Handle {
	if node < 0 || node >= f.fs.opts.Nodes {
		panic(fmt.Sprintf("fs: node %d out of range [0,%d)", node, f.fs.opts.Nodes))
	}
	h := &Handle{file: f, node: node}
	if f.fs.inj != nil {
		h.retryRNG = f.fs.inj.RetryStream(node)
	}
	return h
}

// place maps a logical block to (disk, physical block), remapping off
// a dead disk onto a survivor (disk.Array.Remap): degraded mode models
// the recovery read as an ordinary access at the same physical position
// on another disk.
func (fs *FileSystem) place(f *File, block int) (diskID, phys int) {
	d, p := f.locate(block)
	if fs.inj == nil || fs.disks.Alive(d) {
		return d, p
	}
	fs.fstats.DegradedReads++
	return fs.disks.Remap(d, block), p
}

// Read obtains the given logical block, blocking the process until the
// data are available, and schedules readahead. It returns the time the
// read took. Under fault injection, failed fills are retried with the
// configured backoff; Read panics if the retry policy gives up (only
// possible with MaxAttempts set — use TryRead to observe the error).
func (h *Handle) Read(p *sim.Proc, block int) sim.Duration {
	d, err := h.TryRead(p, block)
	if err != nil {
		panic(fmt.Sprintf("fs: %v", err))
	}
	return d
}

// TryRead is Read returning the error when the retry policy's
// MaxAttempts is exhausted instead of panicking. The wrapped cause
// satisfies errors.Is against the disk package's typed errors.
func (h *Handle) TryRead(p *sim.Proc, block int) (sim.Duration, error) {
	f := h.file
	if block < 0 || block >= f.Blocks() {
		panic(fmt.Sprintf("fs: read of block %d outside file %q (%d blocks)", block, f.name, f.Blocks()))
	}
	start := p.Now()
	h.release()
	fs := f.fs
	id := f.globalID(block)
	attempts := 0
	for {
		if buf := fs.lookup(p, id); buf != nil {
			ready := fs.bc.Pin(h.node, buf)
			fs.work(p, fs.opts.Memory.Hit)
			if !ready {
				buf.IODone.Wait(p)
				if err := buf.FillErr(); err != nil {
					if giveUp := h.failedRead(p, buf, block, err, &attempts); giveUp != nil {
						return p.Now().Sub(start), giveUp
					}
					continue
				}
			}
			h.held = buf
			break
		}
		fs.work(p, fs.opts.Memory.Miss)
		if fs.bc.Lookup(id) != nil {
			continue
		}
		buf := fs.bc.AllocateDemand(h.node, id)
		if buf == nil {
			fs.bc.Freed.Sleep(p)
			continue
		}
		d, phys := fs.place(f, block)
		req := fs.disks.Submit(d, id, phys, false)
		fs.bc.BeginFetchFrom(buf, &req.Complete, req.EstDone, req)
		buf.IODone.Wait(p)
		if err := buf.FillErr(); err != nil {
			if giveUp := h.failedRead(p, buf, block, err, &attempts); giveUp != nil {
				return p.Now().Sub(start), giveUp
			}
			continue
		}
		h.held = buf
		break
	}
	f.readahead(p, h.node, block)
	return p.Now().Sub(start), nil
}

// lookup returns the frame holding block id, or nil. A readahead
// claims its frame before it pays for the action and submits the disk
// request only after, so a frame can be in the block index with no
// transfer to wait on yet; lookup sleeps until the next readahead
// submit and looks again.
func (fs *FileSystem) lookup(p *sim.Proc, id int) *cache.Buffer {
	for {
		buf := fs.bc.Lookup(id)
		if buf == nil || buf.State() != cache.Fetching || buf.IODone != nil {
			return buf
		}
		fs.submitted.Sleep(p)
	}
}

// failedRead releases a failed fill and sleeps the retry backoff in
// virtual time. It returns a non-nil error when the policy is
// exhausted; otherwise the caller loops to refetch.
func (h *Handle) failedRead(p *sim.Proc, buf *cache.Buffer, block int, err error, attempts *int) error {
	fs := h.file.fs
	fs.bc.Unpin(buf)
	*attempts++
	if fs.retry.Exhausted(*attempts) {
		return fmt.Errorf("fs: read of block %d of %q failed after %d attempts: %w",
			block, h.file.name, *attempts, err)
	}
	fs.fstats.ReadRetries++
	if d := fs.retry.Backoff(*attempts, h.retryRNG); d > 0 {
		p.Advance(d)
	}
	return nil
}

// readahead schedules up to Readahead subsequent blocks without waiting
// for them.
func (f *File) readahead(p *sim.Proc, node, after int) {
	fs := f.fs
	depth := fs.opts.Readahead
	for i := 1; i <= depth; i++ {
		b := after + i
		if b >= f.Blocks() {
			return
		}
		id := f.globalID(b)
		if fs.bc.Contains(id) {
			continue
		}
		buf, res := fs.bc.AllocatePrefetch(node, id)
		if res != cache.PrefetchOK {
			return
		}
		fs.work(p, fs.opts.Memory.PrefetchAction)
		d, phys := fs.place(f, b)
		req := fs.disks.Submit(d, id, phys, true)
		// A failed speculative fill demotes silently in the cache;
		// readahead never retries — the block comes back on demand.
		fs.bc.BeginFetchFrom(buf, &req.Complete, req.EstDone, req)
		fs.submitted.WakeAll()
	}
}

// Write replaces the contents of the given logical block. Whole-block
// writes need no read I/O: the block is installed in the cache
// immediately and written back to disk asynchronously (write-behind).
// The handle holds the block afterwards, exactly as after Read. It
// returns the time the write call took (cache work only — the disk
// write proceeds in the background; use FileSystem.Sync to drain).
func (h *Handle) Write(p *sim.Proc, block int) sim.Duration {
	f := h.file
	if block < 0 || block >= f.Blocks() {
		panic(fmt.Sprintf("fs: write of block %d outside file %q (%d blocks)", block, f.name, f.Blocks()))
	}
	start := p.Now()
	h.release()
	fs := f.fs
	id := f.globalID(block)
	var buf *cache.Buffer
	for {
		if buf = fs.lookup(p, id); buf != nil {
			ready := fs.bc.Pin(h.node, buf)
			fs.work(p, fs.opts.Memory.Hit)
			if !ready {
				// Overwriting a block whose read is still in flight:
				// wait for the frame to settle, then replace contents.
				buf.IODone.Wait(p)
				if buf.FillErr() != nil {
					// The in-flight read failed; the whole-block write
					// never needed its data — drop the failed frame
					// and install fresh contents. No backoff: nothing
					// is being retried.
					fs.bc.Unpin(buf)
					continue
				}
			}
			break
		}
		fs.work(p, fs.opts.Memory.Miss)
		if fs.bc.Lookup(id) != nil {
			continue
		}
		buf = fs.bc.AllocateWrite(h.node, id)
		if buf == nil {
			fs.bc.Freed.Sleep(p)
			continue
		}
		break
	}
	h.held = buf
	// Write-behind: keep the frame resident until the disk write lands.
	fs.bc.Retain(buf)
	d, phys := fs.place(f, block)
	fs.pendingWrites++
	fs.writesIssued++
	var w *writeback
	if n := len(fs.wbFree); n > 0 {
		w = fs.wbFree[n-1]
		fs.wbFree[n-1] = nil
		fs.wbFree = fs.wbFree[:n-1]
	} else {
		w = new(writeback)
	}
	*w = writeback{fs: fs, f: f, buf: buf, block: block}
	w.req = fs.disks.Submit(d, id, phys, false)
	w.req.Complete.AddWaiter(w)
	return p.Now().Sub(start)
}

// writeback is the continuation (sim.Waiter) registered on a write's
// disk completion: it releases the disk request and the retained frame
// and, when the last outstanding write lands, wakes Sync callers.
// Running it in kernel context keeps write-behind off the
// goroutine-handoff path entirely. Under fault injection it is also the
// retry loop: a failed write is resubmitted after a virtual-time
// backoff (a kernel timer, since no process is attached to a
// write-behind).
type writeback struct {
	fs      *FileSystem
	f       *File
	buf     *cache.Buffer
	block   int // logical block within f
	req     *disk.Request
	retries int
}

func (w *writeback) Wake() {
	fs := w.fs
	err := w.req.Err
	// The write-behind is the request's only consumer, and it is done
	// with it: a retry submits a fresh request.
	w.req.Release()
	w.req = nil
	if err != nil && fs.retryWrite(w) {
		return
	}
	fs.bc.Unpin(w.buf)
	fs.pendingWrites--
	*w = writeback{}
	fs.wbFree = append(fs.wbFree, w)
	if fs.pendingWrites == 0 {
		fs.writesDrained.WakeAll()
	}
}

// fsTrim is the file system as its kernel's run-end waiter
// (sim.Kernel.OnRunEnd).
type fsTrim FileSystem

// Wake runs at the end of each kernel run and drops the free
// write-behind records. Every write has landed by then: a pending write
// always has its disk completion or its retry queued, so the run cannot
// end under it.
func (t *fsTrim) Wake() { t.wbFree = nil }

// retryWrite resubmits a failed write-back after backoff. It returns
// false when the retry policy is exhausted: the write is dropped (and
// counted) so Sync cannot hang on an unwritable block.
func (fs *FileSystem) retryWrite(w *writeback) bool {
	if fs.inj == nil {
		return false
	}
	w.retries++
	if fs.retry.Exhausted(w.retries + 1) {
		fs.fstats.WritesDropped++
		return false
	}
	fs.fstats.WriteRetries++
	fs.k.After(fs.retry.Backoff(w.retries, fs.wbRetry), func() {
		d, phys := fs.place(w.f, w.block)
		w.req = fs.disks.Submit(d, w.buf.Block(), phys, false)
		w.req.Complete.AddWaiter(w)
	})
	return true
}

// Sync blocks the process until every outstanding write-back has
// reached the disks.
func (fs *FileSystem) Sync(p *sim.Proc) sim.Duration {
	start := p.Now()
	for fs.pendingWrites > 0 {
		fs.writesDrained.Sleep(p)
	}
	return p.Now().Sub(start)
}

// release drops the currently held buffer, if any.
func (h *Handle) release() {
	if h.held != nil {
		h.file.fs.bc.Unpin(h.held)
		h.held = nil
	}
}

// Close releases the handle's held buffer.
func (h *Handle) Close() { h.release() }

// work charges an overhead cost (see core's fsWork; a 1µs floor keeps
// virtual time advancing under zero-cost models).
func (fs *FileSystem) work(p *sim.Proc, c memory.Cost) {
	others := fs.track.Enter()
	d := c.At(others)
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	p.Advance(d)
	fs.track.Exit()
}
