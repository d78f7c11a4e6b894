// Package hmcs implements the two-level HMCS lock of Chabbi, Fagan and
// Mellor-Crummey (PPoPP 2015): an MCS lock per socket plus a root MCS
// lock, with cohort-style passing between same-socket waiters. It is the
// strongest NUMA-aware competitor in the paper's plots ("CNA ... only lags
// behind HMCS by a narrow margin") and the clearest illustration of the
// space cost CNA eliminates: one padded queue per socket plus a root
// queue, versus CNA's single word.
//
// The leaf queues queue the threads' own nodes (locks.Node) and follow
// its Grant / AwaitNext / Thread.Expire protocol, as MCS does; only the
// root nodes, one per socket, belong to the lock.
package hmcs

import (
	"sync/atomic"
	"time"

	"repro/internal/locks"
	"repro/internal/waiter"
)

// DefaultThreshold bounds consecutive same-socket handovers (the HMCS
// paper's default passing threshold).
const DefaultThreshold = 64

// The grant values a leaf node receives, as sentinel nodes whose fields
// are never accessed. cohortPass hands the composite lock on with the
// leaf (a granted root node receives it too: the composite lock is then
// the representative's); acquireRoot promotes the successor to its
// socket's representative, which must acquire the root queue itself.
var (
	cohortPass  = new(locks.Node)
	acquireRoot = new(locks.Node)
)

// leaf is one socket's MCS queue plus the state its holder owns and
// hands on with it: the socket's node in the root queue and the count of
// consecutive cohort passes (the hierarchical structure that makes HMCS
// cost Ω(sockets) space). One cache line.
type leaf struct {
	tail atomic.Pointer[locks.Node]
	// root is the socket's node in the root queue. A representative
	// whose timed root wait expires leaves it there as a tombstone and
	// installs a fresh one before it releases the leaf.
	root *locks.Node
	// passes counts the cohort passes since the socket's representative
	// took the root; it is 0 whenever the leaf is free.
	passes uint64
	_      [5]uint64
}

// HMCS is a two-level hierarchical MCS lock.
type HMCS struct {
	rootTail  atomic.Pointer[locks.Node]
	leaves    []*leaf
	wait      waiter.Policy
	threshold uint64
	handover  *locks.HandoverCounter // nil until EnableStats: no counter writes by default
}

// New returns an HMCS lock for the given socket count, passing the lock
// within a socket up to threshold consecutive times.
func New(sockets int, threshold uint64) *HMCS {
	if sockets < 1 {
		panic("hmcs: need at least one socket")
	}
	if threshold < 1 {
		threshold = 1
	}
	l := &HMCS{
		leaves:    make([]*leaf, sockets),
		wait:      waiter.Default,
		threshold: threshold,
	}
	for i := range l.leaves {
		l.leaves[i] = &leaf{root: locks.NewNode()}
	}
	return l
}

// SetWait implements waiter.Setter: the policy covers both the leaf
// (per-socket) and root queue waits. Call before the lock is shared.
func (l *HMCS) SetWait(p waiter.Policy) { l.wait = p }

// EnableStats implements locks.StatsEnabler. Call before the lock is
// shared.
func (l *HMCS) EnableStats() {
	if l.handover == nil {
		h := locks.NewHandoverCounter()
		l.handover = &h
	}
}

// Lock acquires the lock for t.
func (l *HMCS) Lock(t *locks.Thread) {
	lf := l.leaves[t.Socket]
	me := t.Node(t.AcquireSlot())
	me.ClearNext()
	prev := lf.tail.Swap(me)
	if prev != nil {
		// Contended: as in locks.MCS, the spin word and park residue are
		// cleared here, before the link publishes the node.
		me.Spin.Store(nil)
		l.wait.Prepare(&me.Wait)
		prev.Next.Store(me)
		l.wait.Wait(&me.Wait, me.Ready)
	}
	if prev == nil || me.Spin.Load() == acquireRoot {
		// We are the socket's representative: acquire the root queue
		// with the leaf's root node.
		rn := lf.root
		rn.ClearNext()
		if rprev := l.rootTail.Swap(rn); rprev != nil {
			rn.Spin.Store(nil)
			l.wait.Prepare(&rn.Wait)
			rprev.Next.Store(rn)
			l.wait.Wait(&rn.Wait, rn.Ready)
		}
	}
	if h := l.handover; h != nil {
		h.Record(t.Socket)
	}
}

// LockTimeout implements locks.TimedMutex: the locks.Node abandonment
// protocol (see locks.TSClean) at both levels. A waiter that times out
// in the leaf queue abandons its own node (Thread.Expire); a
// representative that times out in the root queue abandons the leaf's
// root node, installs a fresh one, and then releases the leaf it won —
// promoting a successor to representative or freeing the socket queue.
func (l *HMCS) LockTimeout(t *locks.Thread, d time.Duration) bool {
	lf := l.leaves[t.Socket]
	me := t.Node(t.AcquireSlot())
	deadline := time.Now().Add(d)
	me.ClearNext()
	// Arm before the tail swap publishes the node: a releaser must
	// never observe this (timed) node unarmed.
	me.Spin.Store(nil)
	l.wait.Prepare(&me.Wait)
	me.TState.Store(locks.TSArmed)
	if prev := lf.tail.Swap(me); prev != nil {
		prev.Next.Store(me)
		if !l.wait.WaitUntil(&me.Wait, me.Ready, deadline) && !t.Expire(me) {
			return false
		}
	}
	me.TState.Store(locks.TSClean)
	if me.Spin.Load() != cohortPass {
		// Representative (an at-the-buzzer promotion carries the expired
		// deadline to the root and gives up there in O(1) if contended).
		rn := lf.root
		rn.ClearNext()
		rn.Spin.Store(nil)
		l.wait.Prepare(&rn.Wait)
		rn.TState.Store(locks.TSArmed)
		if prev := l.rootTail.Swap(rn); prev != nil {
			prev.Next.Store(rn)
			if !l.wait.WaitUntil(&rn.Wait, rn.Ready, deadline) && rn.Abandon() {
				lf.root = locks.NewNode()
				l.release(&lf.tail, me, acquireRoot)
				t.ReleaseSlot()
				return false
			}
		}
		rn.TState.Store(locks.TSClean)
	}
	if h := l.handover; h != nil {
		h.Record(t.Socket)
	}
	return true
}

// TryLock implements locks.Mutex: one CAS on the empty leaf tail, then
// one CAS on the empty root tail. When the root is busy we leave the
// leaf as a representative that never owned the lock does: the queue is
// freed, or a successor that linked in behind us meanwhile is promoted
// to representative (acquireRoot), exactly the handoff an
// exhausted-budget Unlock performs. Either way a failed TryLock ends
// with no queue presence and the nesting slot returned.
func (l *HMCS) TryLock(t *locks.Thread) bool {
	lf := l.leaves[t.Socket]
	me := t.Node(t.AcquireSlot())
	me.ClearNext()
	if !lf.tail.CompareAndSwap(nil, me) {
		t.ReleaseSlot()
		return false
	}
	rn := lf.root
	rn.ClearNext()
	if !l.rootTail.CompareAndSwap(nil, rn) {
		l.release(&lf.tail, me, acquireRoot)
		t.ReleaseSlot()
		return false
	}
	if h := l.handover; h != nil {
		h.Record(t.Socket)
	}
	return true
}

// Unlock releases the lock for t.
func (l *HMCS) Unlock(t *locks.Thread) {
	lf := l.leaves[t.Socket]
	n := t.Node(t.ReleaseSlot())
	if lf.passes+1 < l.threshold {
		// Budget remains: pass the composite lock within the cohort to
		// the first live linked successor, skipping tombstones.
		lf.passes++
		for next := n.Next.Load(); next != nil; next = n.Next.Load() {
			if next.Grant(l.wait, cohortPass) {
				return
			}
			n = next
		}
	}
	// Either the budget is exhausted or no live successor is linked
	// from n (our node or a tombstone): release the root queue, then
	// the leaf queue.
	lf.passes = 0
	l.release(&l.rootTail, lf.root, cohortPass)
	l.release(&lf.tail, n, acquireRoot)
}

// release releases the queue whose tail is tail from n: it grants v to
// the first live successor, skipping tombstones, or empties the queue.
func (l *HMCS) release(tail *atomic.Pointer[locks.Node], n, v *locks.Node) {
	for {
		next := n.Next.Load()
		if next == nil {
			if tail.CompareAndSwap(n, nil) {
				return
			}
			next = n.AwaitNext()
		}
		if next.Grant(l.wait, v) {
			return
		}
		n = next
	}
}

// Name implements locks.Mutex.
func (l *HMCS) Name() string { return "HMCS" + l.wait.Suffix() }

// Handovers exposes local/remote handover statistics (read when idle).
// Without EnableStats it reports zeros.
func (l *HMCS) Handovers() *locks.HandoverCounter {
	if l.handover == nil {
		h := locks.NewHandoverCounter()
		return &h
	}
	return l.handover
}

var _ locks.Mutex = (*HMCS)(nil)
var _ locks.TimedMutex = (*HMCS)(nil)
var _ locks.StatsEnabler = (*HMCS)(nil)
