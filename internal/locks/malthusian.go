package locks

import (
	"time"

	"repro/internal/waiter"
)

// Malthusian is the MCSCR lock of Dice ("Malthusian Locks", EuroSys
// 2017), which the paper's related-work section identifies as CNA's
// closest ancestor: an MCS lock whose unlock path *culls* excess waiting
// threads from the main queue into a passive list, bounding the set of
// threads actively circulating over the lock. CNA can be read as the
// NUMA-aware sibling the Malthusian paper sketches as MCSCRN — instead
// of culling arbitrary excess waiters, CNA culls *remote-socket* waiters
// — so having MCSCR here makes the lineage testable.
//
// This implementation keeps one passive LIFO list and applies the
// long-term-fairness rule of the same shape as CNA's: with small
// probability per handover, a passive waiter is reactivated at the head
// of the main queue.
//
// The passivation loop — the wait a culled thread sits in until it is
// revived — runs through the pluggable waiter policy, which is where
// the Malthusian idea pays off in user space: under SpinThenPark a
// culled thread is parked on its node's semaphore and consumes no
// scheduler quanta at all until the revive handover wakes it, instead
// of yielding in a loop for its entire (unbounded) passive tenure.
// TestMalthusianPassiveWaitersPark pins this.
type Malthusian struct {
	q    Queue
	wait waiter.Policy

	// passive is the culled-waiter stack; only the lock holder touches
	// it, so plain fields suffice (like CNA's holder-maintained state).
	// The release path keeps that invariant honest by never freeing the
	// lock while the list is non-empty: a drained queue hands over to a
	// passive waiter directly, so no access ever follows the release.
	passiveHead *Node
	passiveLen  int

	// cullMask and reviveMask are the policy knobs: a waiter is culled
	// with probability cullProb when the main queue is long enough, and
	// a passive waiter is revived with probability 1/(reviveMask+1) per
	// handover.
	reviveMask uint64
	minActive  int

	stats struct {
		culled, revived uint64
	}
}

// NewMalthusian returns an MCSCR lock keeping at least minActive threads
// circulating and reviving passive waiters with probability
// 1/(reviveMask+1) per handover. Like MCS it queues the threads' own
// nodes.
func NewMalthusian(minActive int, reviveMask uint64) *Malthusian {
	if minActive < 1 {
		minActive = 1
	}
	return &Malthusian{wait: waiter.Default, reviveMask: reviveMask, minActive: minActive}
}

// DefaultMalthusianMinActive and DefaultMalthusianReviveMask are the
// default policy knobs: keep at least 2 threads circulating, revive a
// passive waiter with probability 1/65536 per handover (the fairness
// scale the other locks use).
const (
	DefaultMalthusianMinActive         = 2
	DefaultMalthusianReviveMask uint64 = 0xffff
)

// DefaultMalthusian matches the fairness scale used by the other locks.
func DefaultMalthusian() *Malthusian {
	return NewMalthusian(DefaultMalthusianMinActive, DefaultMalthusianReviveMask)
}

// SetWait implements waiter.Setter. Call before the lock is shared.
func (l *Malthusian) SetWait(p waiter.Policy) { l.wait = p }

// Lock is plain MCS acquisition; culling happens on the unlock side. A
// culled thread never leaves this wait — its node moves to the passive
// list while it keeps waiting (parked, under a parking policy) until a
// revive handover grants its spin word.
func (l *Malthusian) Lock(t *Thread) { l.q.Lock(t.Node(t.AcquireSlot()), l.wait) }

// LockTimeout implements TimedMutex via Queue.LockUntil. Abandoned
// nodes stay in the main queue until a release's skip walk passes them
// — they are never culled (see Unlock), so the passive list never holds
// a timed node.
func (l *Malthusian) LockTimeout(t *Thread, d time.Duration) bool {
	if _, ok := l.q.LockUntil(t.Node(t.AcquireSlot()), l.wait, time.Now().Add(d)); !ok {
		t.Retire()
		return false
	}
	return true
}

// TryLock implements Mutex: it enters only an empty queue, as in MCS.
// The tail is nil only when the passive list is empty too (a releaser
// with passive waiters hands the lock directly to one instead of
// freeing it), so a successful TryLock can never interleave with a
// revive.
func (l *Malthusian) TryLock(t *Thread) bool {
	if l.q.TryLock(t.Node(t.AcquireSlot())) {
		return true
	}
	t.ReleaseSlot()
	return false
}

// Unlock passes the lock, culling the immediate successor into the
// passive list when more than minActive waiters are linked, and
// occasionally reviving a passive waiter for long-term fairness.
func (l *Malthusian) Unlock(t *Thread) {
	n := t.Node(t.ReleaseSlot())

	// Revive: pop a passive waiter and splice it in as our successor.
	if l.passiveHead != nil && t.RNG.Next()&l.reviveMask == 0 {
		revived := l.passiveHead
		l.passiveHead = revived.Next.Load()
		l.passiveLen--
		l.stats.revived++
		// The revived node becomes the next holder; the current main
		// queue (if any) stays behind it.
		next := n.Next.Load()
		if next == nil {
			// Try to make the revived node the whole queue.
			revived.Next.Store(nil)
			if !l.q.Tail.CompareAndSwap(n, revived) {
				// A new waiter is linking in; wait and chain it behind.
				revived.Next.Store(n.AwaitNext())
			}
		} else {
			revived.Next.Store(next)
		}
		revived.Spin.Store(granted)
		l.wait.Wake(&revived.Wait)
		return
	}

	l.releaseFrom(n)
}

// releaseFrom hands the lock past n, looped so a grant refused by an
// abandoned timed waiter continues the release from that node. The
// loop's n is the holder's own node on entry and abandoned skip-walk
// tombstones on later iterations.
func (l *Malthusian) releaseFrom(n *Node) {
	for {
		next := n.Next.Load()
		if next == nil {
			// No linked successor. Passive waiters must not strand, and the
			// passive list is holder-only state, so it must never be touched
			// after a release CAS publishes a free lock: with passive
			// waiters present, hand the lock directly to one — swing the
			// tail from our node to the revived node — instead of freeing
			// it. The tail is therefore nil only when the passive list is
			// empty too, which is what makes the TryLock fast path safe.
			if l.passiveHead != nil {
				revived := l.passiveHead
				l.passiveHead = revived.Next.Load()
				l.passiveLen--
				revived.Next.Store(nil)
				if l.q.Tail.CompareAndSwap(n, revived) {
					l.stats.revived++
					// Passive nodes are never timed (see the cull gate
					// below), so the direct handover is a plain grant.
					revived.Spin.Store(granted)
					l.wait.Wake(&revived.Wait)
					return
				}
				// A new waiter swapped the tail after our next-load and is
				// about to link in. We still hold the lock, so the list is
				// still ours: put the node back and hand over normally.
				revived.Next.Store(l.passiveHead)
				l.passiveHead = revived
				l.passiveLen++
			} else if l.q.Tail.CompareAndSwap(n, nil) {
				return
			}
			next = n.AwaitNext()
		}

		// Cull: if a second linked waiter exists beyond next and the active
		// set is above the floor, move next to the passive list and hand the
		// lock past it. The culled waiter is not woken — under a parking
		// policy it stays parked on its node for its whole passive tenure.
		// Only untimed (TSClean) waiters are culled: a timed waiter must
		// stay in the main queue, where an abandonment is skipped within
		// one release's walk — in the passive list a revive could grant
		// the lock to a waiter that already left. TSClean on a queued
		// node is stable (arming happens before enqueue), so the gate
		// cannot race the waiter's own timeout.
		if nn := next.Next.Load(); nn != nil && next.TState.Load() == TSClean && l.activeEstimate(next) > l.minActive {
			next.Next.Store(l.passiveHead)
			l.passiveHead = next
			l.passiveLen++
			l.stats.culled++
			next = nn
		}
		if next.Grant(l.wait, granted) {
			return
		}
		n = next // abandoned: continue the release from the skipped node
	}
}

// activeEstimate counts linked waiters up to a small bound — enough to
// decide whether culling keeps minActive circulating.
func (l *Malthusian) activeEstimate(from *Node) int {
	count := 0
	for cur := from; cur != nil && count < l.minActive+2; cur = cur.Next.Load() {
		count++
	}
	return count
}

// Name implements Mutex.
func (l *Malthusian) Name() string { return "MCSCR" + l.wait.Suffix() }

// CullStats reports (culled, revived) counts; read while idle.
func (l *Malthusian) CullStats() (uint64, uint64) { return l.stats.culled, l.stats.revived }

// passiveParked reports whether every currently passive waiter has
// committed to a blocking wait (tests only; call while holding the lock
// or while the lock is otherwise quiescent enough that the passive list
// is stable).
func (l *Malthusian) passiveParked() (parked, total int) {
	for cur := l.passiveHead; cur != nil; cur = cur.Next.Load() {
		total++
		if cur.Wait.Parked() {
			parked++
		}
	}
	return parked, total
}

var _ Mutex = (*Malthusian)(nil)
