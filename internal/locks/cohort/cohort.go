// Package cohort implements the Lock Cohorting construction of Dice,
// Marathe and Shavit (PPoPP 2012 / TOPC 2015), the family of hierarchical
// NUMA-aware locks the paper compares CNA against.
//
// A cohort lock combines a global lock G with one local lock per socket.
// A thread first acquires its socket's local lock; if the previous local
// holder passed it the global lock ("cohort passing"), it owns the
// composite lock immediately, otherwise it also acquires G. On release,
// if another thread waits on the same socket and the local-handover budget
// is not exhausted, the holder passes G's ownership through the local
// lock; otherwise it releases G (and then the local lock), letting another
// socket in.
//
// The construction requires G to be thread-oblivious (acquired by one
// thread, released by another) and the local locks to support cohort
// detection (is a same-socket thread waiting?). This matches the paper's
// description and exposes exactly why such locks need Ω(sockets) space:
// one padded local lock per socket, plus G.
//
// The components are the library's own locks: an MCS local (MCSLocal)
// is a locks.Queue of the threads' nodes whose grant value carries the
// pass, a ticket local (TicketLocal) is a locks.Ticket plus a pass flag,
// and each global (locks.BackoffTAS, locks.Ticket,
// locks.PartitionedTicket) is used as it is.
package cohort

import (
	"fmt"
	"time"

	"repro/internal/locks"
	"repro/internal/waiter"
)

// Global is a thread-oblivious lock usable as the top of the hierarchy.
type Global interface {
	Lock(t *locks.Thread)
	// TryLock attempts one non-blocking acquisition (the composite
	// TryLock path; every global here is a registry lock whose Mutex
	// TryLock satisfies this).
	TryLock(t *locks.Thread) bool
	Unlock(t *locks.Thread)
}

// Local is a socket-level lock supporting cohort passing and detection.
// The slot argument is the Thread nesting slot reserved by the composite
// lock; a queue-based local queues the thread's node for it
// (t.Node(slot)).
type Local interface {
	// Lock acquires the local lock; the return value reports whether the
	// previous holder passed global ownership to the caller.
	Lock(t *locks.Thread, slot int) (globalPassed bool)
	// TryLock attempts one non-blocking local acquisition. acquired
	// reports success; globalPassed (meaningful only when acquired) says
	// whether the previous holder passed global ownership along.
	TryLock(t *locks.Thread, slot int) (acquired, globalPassed bool)
	// Unlock releases the local lock. passGlobal tells the next local
	// acquirer that it owns the global lock; delivered reports whether a
	// waiter actually received the handover. With timed locals a waiter
	// seen by HasWaiter may abandon before the pass lands — when
	// delivered comes back false the caller still owns the global lock
	// and must release it itself.
	Unlock(t *locks.Thread, slot int, passGlobal bool) (delivered bool)
	// HasWaiter reports whether another thread waits on this local lock.
	// Only the holder may call it.
	HasWaiter(t *locks.Thread, slot int) bool
}

// TimedLocal is a Local with deadline-bounded acquisition (MCSLocal).
type TimedLocal interface {
	Local
	// LockTimeout attempts the local acquisition until the deadline.
	// acquired=false means expiry: no local lock, and the slot has been
	// released (slot must be t's top nesting slot; expiry settles
	// through locks.Thread.Retire, which releases it), so the caller
	// must not release it again. globalPassed has Lock's meaning when
	// acquired.
	LockTimeout(t *locks.Thread, slot int, deadline time.Time) (acquired, globalPassed bool)
}

// TimedGlobal is a Global with deadline-bounded acquisition (the
// backoff-TAS global; ticket globals cannot return a drawn ticket).
type TimedGlobal interface {
	Global
	LockTimeout(t *locks.Thread, d time.Duration) bool
}

// DefaultMaxLocalPasses bounds consecutive same-socket handovers, the
// cohort locks' long-term fairness knob. The paper configures all
// NUMA-aware locks "with similar fairness settings"; 64 is the HMCS
// paper's default and a common choice for cohort locks.
const DefaultMaxLocalPasses = 64

// Lock is a cohort lock: a Global plus one Local per socket.
type Lock struct {
	name     string
	global   Global
	local    []Local
	wait     waiter.Policy
	maxPass  int
	passes   []paddedCount // consecutive local passes per socket
	sockets  int
	handover *locks.HandoverCounter // nil until EnableStats: no counter writes by default
}

type paddedCount struct {
	n int
	_ [7]uint64
}

// New assembles a cohort lock from a global lock and per-socket locals.
func New(name string, global Global, local []Local, maxLocalPasses int) *Lock {
	if len(local) == 0 {
		panic("cohort: need at least one local lock")
	}
	if maxLocalPasses < 1 {
		maxLocalPasses = 1
	}
	return &Lock{
		name:    name,
		global:  global,
		local:   local,
		wait:    waiter.Default,
		maxPass: maxLocalPasses,
		passes:  make([]paddedCount, len(local)),
		sockets: len(local),
	}
}

// SetWait implements waiter.Setter: the policy is forwarded to every
// component (local and global) that supports one. MCS locals park and
// wake through it; ticket-shaped components degrade to proportional
// backoff/yields (see their docs). Call before the lock is shared.
func (c *Lock) SetWait(p waiter.Policy) {
	c.wait = p
	for _, l := range c.local {
		if s, ok := l.(waiter.Setter); ok {
			s.SetWait(p)
		}
	}
	if s, ok := c.global.(waiter.Setter); ok {
		s.SetWait(p)
	}
}

// EnableStats implements locks.StatsEnabler. Call before the lock is
// shared.
func (c *Lock) EnableStats() {
	if c.handover == nil {
		h := locks.NewHandoverCounter()
		c.handover = &h
	}
}

// Lock acquires the composite lock for t.
func (c *Lock) Lock(t *locks.Thread) {
	if t.Socket < 0 || t.Socket >= c.sockets {
		panic(fmt.Sprintf("cohort: thread socket %d outside [0,%d)", t.Socket, c.sockets))
	}
	slot := t.AcquireSlot()
	if c.local[t.Socket].Lock(t, slot) {
		// Global ownership arrived via cohort passing.
		if h := c.handover; h != nil {
			h.Record(t.Socket)
		}
		return
	}
	c.global.Lock(t)
	if h := c.handover; h != nil {
		h.Record(t.Socket)
	}
}

// TryLock implements locks.Mutex on the composite: try the socket's
// local lock, then — unless cohort passing already delivered global
// ownership — try the global. When the global try fails the local lock
// is released again (an ordinary no-pass release: a waiter that arrived
// meanwhile acquires the global itself), so a failed TryLock leaves no
// queue presence behind at either level.
func (c *Lock) TryLock(t *locks.Thread) bool {
	if t.Socket < 0 || t.Socket >= c.sockets {
		panic(fmt.Sprintf("cohort: thread socket %d outside [0,%d)", t.Socket, c.sockets))
	}
	slot := t.AcquireSlot()
	acquired, passed := c.local[t.Socket].TryLock(t, slot)
	if !acquired {
		t.ReleaseSlot()
		return false
	}
	if passed {
		if h := c.handover; h != nil {
			h.Record(t.Socket)
		}
		return true
	}
	if !c.global.TryLock(t) {
		c.local[t.Socket].Unlock(t, slot, false)
		t.ReleaseSlot()
		return false
	}
	if h := c.handover; h != nil {
		h.Record(t.Socket)
	}
	return true
}

// LockTimeout implements locks.TimedMutex. With an MCS local and a
// backoff global (C-BO-MCS) this is a real two-level timed protocol:
// the timed local acquisition (abandonment protocol) with whatever
// deadline budget remains spent on the timed global; a cohort pass
// still short-circuits the global entirely. On a global timeout the
// already-held local lock is released without passing — a local waiter
// that took over acquires the global itself, exactly as after a no-pass
// release. Ticket-shaped components cannot abandon a drawn ticket at
// either level, so those composites degrade to a deadline-bounded
// TryLock poll (cf. locks.Ticket.LockTimeout).
func (c *Lock) LockTimeout(t *locks.Thread, d time.Duration) bool {
	if t.Socket < 0 || t.Socket >= c.sockets {
		panic(fmt.Sprintf("cohort: thread socket %d outside [0,%d)", t.Socket, c.sockets))
	}
	tl, lok := c.local[t.Socket].(TimedLocal)
	tg, gok := c.global.(TimedGlobal)
	if !lok || !gok {
		return locks.PollTimeout(func() bool { return c.TryLock(t) }, d)
	}
	deadline := time.Now().Add(d)
	slot := t.AcquireSlot()
	acquired, passed := tl.LockTimeout(t, slot, deadline)
	if !acquired {
		return false // the local's expiry released the slot
	}
	if passed {
		// Global ownership arrived via cohort passing.
		if h := c.handover; h != nil {
			h.Record(t.Socket)
		}
		return true
	}
	if !tg.LockTimeout(t, time.Until(deadline)) {
		// Local held, global expired: hand the local back without a
		// pass. A successor there (delivered or not) owns no global
		// state, so nothing else needs unwinding.
		c.local[t.Socket].Unlock(t, slot, false)
		t.ReleaseSlot()
		return false
	}
	if h := c.handover; h != nil {
		h.Record(t.Socket)
	}
	return true
}

// Unlock releases the composite lock.
func (c *Lock) Unlock(t *locks.Thread) {
	slot := t.ReleaseSlot()
	s := t.Socket
	if c.passes[s].n < c.maxPass && c.local[s].HasWaiter(t, slot) {
		c.passes[s].n++
		if c.local[s].Unlock(t, slot, true) {
			return
		}
		// The pass found nobody: every waiter HasWaiter saw abandoned
		// its timed wait before the handover landed. The global lock is
		// still ours — release it, or it leaks held forever.
		c.passes[s].n = 0
		c.global.Unlock(t)
		return
	}
	c.passes[s].n = 0
	c.global.Unlock(t)
	c.local[s].Unlock(t, slot, false)
}

// Name implements locks.Mutex.
func (c *Lock) Name() string { return c.name + c.wait.Suffix() }

// Handovers exposes local/remote handover statistics (read when idle).
// Without EnableStats it reports zeros.
func (c *Lock) Handovers() *locks.HandoverCounter {
	if c.handover == nil {
		h := locks.NewHandoverCounter()
		return &h
	}
	return c.handover
}

var _ locks.Mutex = (*Lock)(nil)
var _ locks.TimedMutex = (*Lock)(nil)
var _ locks.StatsEnabler = (*Lock)(nil)
