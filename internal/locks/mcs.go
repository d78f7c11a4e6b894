package locks

import (
	"sync/atomic"
	"time"

	"repro/internal/waiter"
)

// granted is the spin value MCS and MCSCR grant the lock with. Its
// fields are never accessed.
var granted = &Node{}

// MCS is the Mellor-Crummey/Scott queue lock: the shared state is a
// single tail pointer; waiters enqueue with one atomic swap and spin on a
// word in their own node. It is the NUMA-oblivious baseline the CNA lock
// is derived from and measured against. Its queue nodes are the
// threads' own (see Node), so the lock is its tail word and its
// configuration.
type MCS struct {
	tail atomic.Pointer[Node]
	// pad the tail onto its own cache line: arriving threads Swap it
	// continuously and must not invalidate the holder-read fields below.
	_     [7]uint64
	wait  waiter.Policy    // waiting policy; read-only once the lock is shared
	stats *HandoverCounter // nil until EnableStats: default builds write no counters
}

// NewMCS returns an MCS lock. Handover statistics are off by default;
// call EnableStats (or build via the registry with WithStats) before use
// to collect them.
func NewMCS() *MCS { return &MCS{wait: waiter.Default} }

// EnableStats implements StatsEnabler. Call before the lock is shared.
func (l *MCS) EnableStats() {
	if l.stats == nil {
		h := NewHandoverCounter()
		l.stats = &h
	}
}

// SetWait implements waiter.Setter: it selects the waiting policy.
// Call before the lock is shared.
func (l *MCS) SetWait(p waiter.Policy) { l.wait = p }

// Lock enqueues t and waits until it reaches the head of the queue.
func (l *MCS) Lock(t *Thread) {
	n := t.Node(t.AcquireSlot())
	n.ClearNext()

	prev := l.tail.Swap(n)
	if prev == nil {
		// Uncontended: n.Spin stays stale — it is cleared below before
		// the node next becomes visible to a predecessor, and the unlock
		// path never reads it. The waiter state is equally untouched.
		if st := l.stats; st != nil {
			st.Record(t.Socket)
		}
		return
	}
	// Contended: the predecessor can only reach this node through the
	// next link published below, so clearing the spin word and park
	// residue here (rather than before the tail swap) keeps the
	// uncontended path shorter without racing the handover.
	n.Spin.Store(nil)
	l.wait.Prepare(&n.Wait)
	prev.Next.Store(n)
	l.wait.Wait(&n.Wait, n.Ready)
	if st := l.stats; st != nil {
		st.Record(t.Socket)
	}
}

// TryLock implements Mutex: a single CAS on the tail word in place of
// the unconditional swap. It succeeds only when the queue is empty, so
// a failed TryLock never enqueues, never publishes the node and never
// touches the waiter state (waiter.TryPolicy).
func (l *MCS) TryLock(t *Thread) bool {
	n := t.Node(t.AcquireSlot())
	n.ClearNext()
	if l.tail.CompareAndSwap(nil, n) {
		if st := l.stats; st != nil {
			st.Record(t.Socket)
		}
		return true
	}
	t.ReleaseSlot()
	return false
}

// LockTimeout implements TimedMutex via the TState abandonment protocol
// (see TSClean): arm the node, enqueue, run the timed wait, and on
// expiry race the releaser for the node's fate.
func (l *MCS) LockTimeout(t *Thread, d time.Duration) bool {
	n := t.Node(t.AcquireSlot())
	deadline := time.Now().Add(d)
	n.ClearNext()
	// Arm before the tail swap publishes the node: a releaser must
	// never observe this (timed) node unarmed.
	n.Spin.Store(nil)
	l.wait.Prepare(&n.Wait)
	n.TState.Store(TSArmed)

	if prev := l.tail.Swap(n); prev != nil {
		prev.Next.Store(n)
		if !l.wait.WaitUntil(&n.Wait, n.Ready, deadline) && !t.Expire(n) {
			return false
		}
	}
	n.TState.Store(TSClean)
	if st := l.stats; st != nil {
		st.Record(t.Socket)
	}
	return true
}

// Unlock passes the lock to t's successor, or empties the queue. A
// grant refused by an abandoned timed waiter continues the release from
// that tombstone, until a live waiter takes the grant or the queue
// empties.
func (l *MCS) Unlock(t *Thread) {
	n := t.Node(t.ReleaseSlot())
	for {
		next := n.Next.Load()
		if next == nil {
			// No linked successor. If the tail is still n, the queue is
			// empty; otherwise a successor swapped the tail and is about
			// to link in — wait for the link.
			if l.tail.CompareAndSwap(n, nil) {
				return
			}
			next = n.AwaitNext()
		}
		if next.Grant(l.wait, granted) {
			return
		}
		n = next
	}
}

// Name implements Mutex.
func (l *MCS) Name() string { return "MCS" + l.wait.Suffix() }

// Handovers exposes the lock's local/remote handover counts. Read it only
// while the lock is idle; without EnableStats it reports zeros.
func (l *MCS) Handovers() *HandoverCounter {
	if l.stats == nil {
		h := NewHandoverCounter()
		return &h
	}
	return l.stats
}
