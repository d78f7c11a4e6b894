// Package cohort implements C-BO-MCS, the lock from the Lock Cohorting
// construction of Dice, Marathe and Shavit (PPoPP 2012 / TOPC 2015)
// that the paper reports as the best-performing cohort lock and
// compares CNA against.
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
// detection (is a same-socket thread waiting?). In C-BO-MCS, G is a
// backoff test-and-set lock (locks.BackoffTAS), which any thread may
// clear, and each local lock is an MCS queue (locks.Queue) of the
// threads' own nodes, whose grant value carries the pass and whose
// holder sees a waiter through its node's link. This exposes exactly why
// such locks need Ω(sockets) space: one padded line per socket, plus G.
package cohort

import (
	"time"

	"repro/internal/locks"
	"repro/internal/waiter"
)

// DefaultMaxLocalPasses bounds consecutive same-socket handovers, the
// cohort locks' long-term fairness knob. The paper configures all
// NUMA-aware locks "with similar fairness settings"; 64 is the HMCS
// paper's default and a common choice for cohort locks.
const DefaultMaxLocalPasses = 64

// The grant values a socket queue's node receives, as sentinel nodes
// whose fields are never accessed: both hand over the socket's queue,
// and they tell the new holder whether global ownership travelled with
// it.
var (
	noPass  = new(locks.Node) // global NOT passed: acquire it
	gotPass = new(locks.Node) // global ownership passed
)

// socket is one socket's local lock: the MCS queue plus the count of
// consecutive local passes, which its holder owns and hands on with it.
// One cache line, so sockets never share one. Go's allocator places a
// []socket of up to eight sockets (512 B) on a 64 B boundary; a larger
// one may start 8 B past it (the heap's type header), which still keeps
// each socket's used words, its first 16 B, on a line of their own.
type socket struct {
	q locks.Queue
	// passes counts the cohort passes since the global lock last came
	// from G itself; it is 0 whenever the socket's queue is free.
	passes int
	_      [6]uint64
}

// Lock is the C-BO-MCS cohort lock: a backoff-TAS global plus one MCS
// queue per socket.
type Lock struct {
	global   locks.BackoffTAS
	sockets  []socket
	wait     waiter.Policy
	maxPass  int
	handover *locks.HandoverCounter // nil until EnableStats: no counter writes by default
}

// NewCBOMCS returns a C-BO-MCS lock for the given socket count, passing
// the lock within a socket up to maxLocalPasses consecutive times (at
// least once). A thread's Socket must lie in [0, sockets).
func NewCBOMCS(sockets, maxLocalPasses int) *Lock {
	if sockets < 1 {
		panic("cohort: need at least one socket")
	}
	c := &Lock{
		sockets: make([]socket, sockets),
		wait:    waiter.Default,
		maxPass: max(maxLocalPasses, 1),
	}
	c.global.Init(locks.DefaultBackoffMin, locks.DefaultBackoffMax)
	return c
}

// SetWait implements waiter.Setter: the policy covers the socket
// queues' waits (the global lock backs off instead). Call before the
// lock is shared.
func (c *Lock) SetWait(p waiter.Policy) { c.wait = p }

// EnableStats implements locks.StatsEnabler. Call before the lock is
// shared.
func (c *Lock) EnableStats() {
	if c.handover == nil {
		h := locks.NewHandoverCounter()
		c.handover = &h
	}
}

// record counts an acquisition by t when statistics are on.
func (c *Lock) record(t *locks.Thread) {
	if h := c.handover; h != nil {
		h.Record(t.Socket)
	}
}

// Lock acquires the composite lock for t: its socket's queue, then the
// global lock unless the previous socket holder passed it along.
func (c *Lock) Lock(t *locks.Thread) {
	s := &c.sockets[t.Socket]
	if s.q.Lock(t.Node(t.AcquireSlot()), c.wait) != gotPass {
		c.global.Lock(t)
	}
	c.record(t)
}

// TryLock implements locks.Mutex on the composite: enter the socket's
// empty queue, which never carries a pass, then try the global. When
// the global try fails the queue is released again (an ordinary no-pass
// release: a waiter that arrived meanwhile acquires the global itself),
// so a failed TryLock leaves no queue presence behind at either level.
func (c *Lock) TryLock(t *locks.Thread) bool {
	s := &c.sockets[t.Socket]
	me := t.Node(t.AcquireSlot())
	if !s.q.TryLock(me) {
		t.ReleaseSlot()
		return false
	}
	if !c.global.TryLock(t) {
		s.q.Unlock(me, c.wait, noPass)
		t.ReleaseSlot()
		return false
	}
	c.record(t)
	return true
}

// LockTimeout implements locks.TimedMutex, a two-level timed protocol:
// the socket queue's timed enqueue (locks.Queue.LockUntil, whose expiry
// leaves a tombstone and retires t's node), with whatever deadline
// budget remains spent on the global lock's backoff loop; a cohort pass
// still short-circuits the global entirely. On a global timeout the
// already-held queue is released without passing — a local waiter that
// took over acquires the global itself, exactly as after a no-pass
// release.
func (c *Lock) LockTimeout(t *locks.Thread, d time.Duration) bool {
	s := &c.sockets[t.Socket]
	me := t.Node(t.AcquireSlot())
	deadline := time.Now().Add(d)
	v, ok := s.q.LockUntil(me, c.wait, deadline)
	if !ok {
		t.Retire()
		return false
	}
	if v != gotPass && !c.global.LockTimeout(t, time.Until(deadline)) {
		s.q.Unlock(me, c.wait, noPass)
		t.ReleaseSlot()
		return false
	}
	c.record(t)
	return true
}

// Unlock releases the composite lock.
func (c *Lock) Unlock(t *locks.Thread) {
	s := &c.sockets[t.Socket]
	n := t.Node(t.ReleaseSlot())
	if s.passes < c.maxPass && s.q.HasWaiter(n) {
		s.passes++
		if s.q.Unlock(n, c.wait, gotPass) {
			return
		}
		// The pass found nobody: every waiter HasWaiter saw abandoned
		// its timed wait before the handover landed. The global lock is
		// still ours — release it, or it leaks held forever.
		s.passes = 0
		c.global.Unlock(t)
		return
	}
	s.passes = 0
	c.global.Unlock(t)
	s.q.Unlock(n, c.wait, noPass)
}

// Name implements locks.Mutex.
func (c *Lock) Name() string { return "C-BO-MCS" + c.wait.Suffix() }

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
