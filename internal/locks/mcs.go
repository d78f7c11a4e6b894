package locks

import (
	"time"

	"repro/internal/waiter"
)

// granted is the spin value MCS and MCSCR grant the lock with. Its
// fields are never accessed.
var granted = &Node{}

// MCS is the Mellor-Crummey/Scott queue lock: the shared state is a
// single tail pointer; waiters enqueue with one atomic swap and spin on a
// word in their own node. It is the NUMA-oblivious baseline the CNA lock
// is derived from and measured against. It is a Queue of the threads'
// own nodes (see Node), so the lock is its tail word and its
// configuration.
type MCS struct {
	q Queue
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

// record counts an acquisition by t when statistics are on.
func (l *MCS) record(t *Thread) {
	if st := l.stats; st != nil {
		st.Record(t.Socket)
	}
}

// Lock enqueues t and waits until it reaches the head of the queue.
func (l *MCS) Lock(t *Thread) {
	l.q.Lock(t.Node(t.AcquireSlot()), l.wait)
	l.record(t)
}

// TryLock implements Mutex: it enters only an empty queue, so a failed
// TryLock never enqueues, never publishes the node and never touches
// the waiter state.
func (l *MCS) TryLock(t *Thread) bool {
	if !l.q.TryLock(t.Node(t.AcquireSlot())) {
		t.ReleaseSlot()
		return false
	}
	l.record(t)
	return true
}

// LockTimeout implements TimedMutex via Queue.LockUntil.
func (l *MCS) LockTimeout(t *Thread, d time.Duration) bool {
	if _, ok := l.q.LockUntil(t.Node(t.AcquireSlot()), l.wait, time.Now().Add(d)); !ok {
		t.Retire()
		return false
	}
	l.record(t)
	return true
}

// Unlock passes the lock to t's first live successor, or empties the
// queue.
func (l *MCS) Unlock(t *Thread) {
	l.q.Unlock(t.Node(t.ReleaseSlot()), l.wait, granted)
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
