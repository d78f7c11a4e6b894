// Package hmcs implements the two-level HMCS lock of Chabbi, Fagan and
// Mellor-Crummey (PPoPP 2015): an MCS lock per socket plus a root MCS
// lock, with cohort-style passing between same-socket waiters. It is the
// strongest NUMA-aware competitor in the paper's plots ("CNA ... only lags
// behind HMCS by a narrow margin") and the clearest illustration of the
// space cost CNA eliminates: one padded queue per socket plus a root
// queue, versus CNA's single word.
//
// The leaf queues and the root queue are locks.Queues. The leaves queue
// the threads' own nodes (locks.Node), as MCS does; only the root
// nodes, one per socket, belong to the lock.
package hmcs

import (
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
	q locks.Queue
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
	root      locks.Queue
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

// record counts an acquisition by t when statistics are on.
func (l *HMCS) record(t *locks.Thread) {
	if h := l.handover; h != nil {
		h.Record(t.Socket)
	}
}

// Lock acquires the lock for t. A waiter granted a cohort pass holds
// the composite lock; one that entered an empty leaf queue, or was
// promoted with acquireRoot, is its socket's representative and
// acquires the root queue with the leaf's root node.
func (l *HMCS) Lock(t *locks.Thread) {
	lf := l.leaves[t.Socket]
	if lf.q.Lock(t.Node(t.AcquireSlot()), l.wait) != cohortPass {
		l.root.Lock(lf.root, l.wait)
	}
	l.record(t)
}

// LockTimeout implements locks.TimedMutex: Queue.LockUntil at both
// levels, with one deadline. A waiter that times out in the leaf queue
// retires its own node (Thread.Retire); a representative that times
// out in the root queue leaves the leaf's root node there as a
// tombstone, installs a fresh one, and then releases the leaf it won —
// promoting a successor to representative or freeing the socket queue.
// An at-the-buzzer promotion carries the expired deadline to the root
// and gives up there in O(1) if it is contended.
func (l *HMCS) LockTimeout(t *locks.Thread, d time.Duration) bool {
	lf := l.leaves[t.Socket]
	me := t.Node(t.AcquireSlot())
	deadline := time.Now().Add(d)
	v, ok := lf.q.LockUntil(me, l.wait, deadline)
	if !ok {
		t.Retire()
		return false
	}
	if v != cohortPass {
		if _, ok := l.root.LockUntil(lf.root, l.wait, deadline); !ok {
			lf.root = locks.NewNode()
			lf.q.Unlock(me, l.wait, acquireRoot)
			t.ReleaseSlot()
			return false
		}
	}
	l.record(t)
	return true
}

// TryLock implements locks.Mutex: enter the empty leaf queue, then the
// empty root queue. When the root is busy we leave the leaf as a
// representative that never owned the lock does: the queue is freed,
// or a successor that linked in behind us meanwhile is promoted to
// representative (acquireRoot), exactly the handoff an
// exhausted-budget Unlock performs. Either way a failed TryLock ends
// with no queue presence and the nesting slot returned.
func (l *HMCS) TryLock(t *locks.Thread) bool {
	lf := l.leaves[t.Socket]
	me := t.Node(t.AcquireSlot())
	if !lf.q.TryLock(me) {
		t.ReleaseSlot()
		return false
	}
	if !l.root.TryLock(lf.root) {
		lf.q.Unlock(me, l.wait, acquireRoot)
		t.ReleaseSlot()
		return false
	}
	l.record(t)
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
	// the leaf queue from n.
	lf.passes = 0
	l.root.Unlock(lf.root, l.wait, cohortPass)
	lf.q.Unlock(n, l.wait, acquireRoot)
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
