package core

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/pattern"
)

// buildAuditor assembles the runtime invariant auditor over the
// engine's live structures. Every check is a pure observer; the sweep
// panics with an *audit.Violation naming the first invariant that
// fails. Called from Run when cfg.AuditEvery is positive.
func (e *Engine) buildAuditor() *audit.Auditor {
	a := audit.New(e.k, e.cfg.AuditEvery)
	// Cache refcounts, fill states and sources, free lists, LRU
	// membership, and retired frames are mutually consistent.
	a.Register("cache-consistent", e.bcache.Audit)
	// Disk queues: dead and idle disks hold no queue, in-service
	// requests are timestamped consistently, FIFO queues stay in
	// arrival order, and no queued record is back on the free list.
	a.Register("disk-queues", e.disks.Audit)
	if e.bar != nil {
		// Barrier party/arrival counts agree with the membership and
		// presence sets.
		a.Register("barrier-counts", e.bar.Audit)
		// Barrier membership tracks the live processes: a process that
		// finished cleanly has withdrawn. (A killed process stays a
		// member until the quorum watchdog excises it — crash
		// semantics — so only clean finishes are checked.)
		a.Register("barrier-membership", e.auditMembership)
	}
	// Pattern cursors never run past their reference strings.
	a.Register("cursor-bounds", e.auditCursors)
	return a
}

// auditMembership checks that every cleanly finished process has left
// the barrier.
func (e *Engine) auditMembership() error {
	for i := range e.cnodes {
		if n := &e.cnodes[i]; n.finished && e.bar.Member(n.id) {
			return fmt.Errorf("core: node %d finished but is still a barrier member", n.id)
		}
	}
	return nil
}

// auditCursors checks that the pattern cursors stay within their
// reference strings.
func (e *Engine) auditCursors() error {
	if e.pat.Kind.Global() {
		if c, n := int(e.globalCursor), pattern.Len(e.pat.Portions(0)); c < 0 || c > n {
			return fmt.Errorf("core: global cursor %d outside [0, %d]", c, n)
		}
		return nil
	}
	for i := range e.cnodes {
		n := &e.cnodes[i]
		if c, end := int(n.localCursor), pattern.Len(e.pat.Portions(n.id)); c < 0 || c > end {
			return fmt.Errorf("core: node %d local cursor %d outside [0, %d]", n.id, c, end)
		}
	}
	return nil
}
