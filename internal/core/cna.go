// Package core implements CNA, the compact NUMA-aware lock that is the
// paper's contribution (Dice & Kogan, "Compact NUMA-Aware Locks",
// EuroSys 2019).
//
// CNA is a variant of the MCS queue lock. Like MCS, the entire shared
// state of the lock is one word — a pointer to the tail of the waiters'
// queue — and acquisition performs a single atomic exchange. The queue
// nodes are the threads' own (locks.Node, one per nesting depth), so a
// million CNA locks cost a million lock structs and no node storage.
// Unlike MCS, the unlock path partitions waiters into two queues: the
// main queue, holding threads on the current holder's socket (plus new
// arrivals), and a secondary queue holding threads on other sockets.
// The releasing holder scans the main queue for a same-socket
// successor, detaches any skipped remote waiters onto the secondary
// queue, and passes ownership — so the lock (and the data the critical
// section touches) stays on one socket for long stretches.
//
// The secondary queue costs no extra lock state: the pointer to its head
// rides in the successor's spin field (the word a waiter spins on), and
// the pointer to its tail lives in the secondary head's SecTail field.
// Long-term fairness comes from flushing the secondary queue back into
// the main queue with small probability on each handover
// (keep_lock_local, THRESHOLD = 0xffff in the paper).
//
// # Differences from the paper's C pseudo-code
//
// The C code stores 0, 1, or a node pointer in the spin field, relying on
// valid pointers never equalling 1. Go's garbage collector must always
// see real pointers, so Spin is an atomic.Pointer[locks.Node] and the
// value 1 is represented by a package-level sentinel node. The mapping
// is:
//
//	C pseudo-code          this package
//	me->spin == 0          Spin.Load() == nil        (still waiting)
//	me->spin == 1          Spin.Load() == granted    (lock held, secondary queue empty)
//	me->spin  > 1          any other non-nil value   (lock held, points at secondary head)
//
// # Hot-path engineering
//
// The headline claim — CNA matches MCS on the uncontended fast path —
// holds only if the Go port does not pay costs the C pseudo-code never
// does, so the hot paths are tuned accordingly: a queue node is one load
// from the Thread (its node for the nesting depth); the spin word is
// cleared on the contended path only (an empty-queue entrant overwrites it with granted
// anyway, and a predecessor cannot reach the node before it is linked);
// the unlock path loads the holder's spin word once (only the holder
// writes it, so one load serves every decision); and statistics
// collection is opt-in (EnableStats / the registry's WithStats), so a
// default-built lock's handover path performs no counter writes at all.
package core

import (
	"time"

	"repro/internal/locks"
	"repro/internal/waiter"
)

// granted is the sentinel standing for the pseudo-code's spin value 1:
// the lock has been handed to this node's owner and the secondary queue
// is empty. Its fields are never accessed.
var granted = &locks.Node{}

// Timed acquisition follows the locks.Node TState protocol (see
// locks.TSClean). CNA adds one queue the MCS protocol does not have —
// the secondary queue — and the invariant that keeps abandonment bounded
// here is that timed waiters never enter it: findSuccessor treats any
// timed node as an acceptable successor, terminating its scan, so the
// runs it moves to the secondary queue are all-untimed. (A queued node's
// timed-ness is stable: arming precedes enqueue, so a TSClean node in
// the queue can never become armed.) An abandoned node therefore always
// sits in the main queue, where the very next release walk skips it —
// the same bound MCS has — instead of lingering for a potentially
// unbounded secondary tenure behind a 1/65536 flush draw.

// Options tune the CNA policy knobs described in Sections 5 and 6.
type Options struct {
	// KeepLocalMask is the paper's THRESHOLD: on each contended handover
	// the holder draws a pseudo-random number and keeps the lock on its
	// socket iff draw & KeepLocalMask != 0. The default 0xffff flushes
	// the secondary queue with probability 1/65536. A mask of 0 disables
	// NUMA-awareness entirely, reducing CNA to exact MCS FIFO order.
	KeepLocalMask uint64
	// ShuffleReduction enables the Section 6 optimisation: when the
	// secondary queue is empty, hand the lock to the immediate successor
	// (skipping the successor scan) with probability
	// ShuffleMask/(ShuffleMask+1).
	ShuffleReduction bool
	// ShuffleMask is the paper's THRESHOLD2 (default 0xff).
	ShuffleMask uint64
	// FairnessCountdown enables the Section 6 optimisation of the
	// keep_lock_local policy: "instead of drawing a pseudo-random number
	// in every invocation of keep_lock_local, a thread can store the
	// drawn number in a thread-local variable and decrement it with
	// every lock handover", redrawing when it reaches zero. The variable
	// is locks.Thread.KeepLocal. The expected flush rate is unchanged;
	// the per-handover PRNG call disappears.
	FairnessCountdown bool
}

// DefaultOptions returns the paper's configuration: THRESHOLD = 0xffff,
// shuffle reduction off.
func DefaultOptions() Options {
	return Options{KeepLocalMask: 0xffff, ShuffleReduction: false, ShuffleMask: 0xff}
}

// OptimizedOptions returns the "CNA (opt)" configuration evaluated in
// Figures 9 and 11: shuffle reduction on with THRESHOLD2 = 0xff.
func OptimizedOptions() Options {
	o := DefaultOptions()
	o.ShuffleReduction = true
	return o
}

// Stats are CNA-specific counters, maintained by the lock holder (so they
// need no atomics) and meaningful only while the lock is idle. Collection
// is opt-in via EnableStats; a default-built lock never writes them.
type Stats struct {
	// Handover counts where ownership travelled.
	Handover locks.HandoverCounter
	// SecondaryMoves is the total number of nodes moved from the main to
	// the secondary queue.
	SecondaryMoves uint64
	// QueueAlterations counts unlock operations that restructured the
	// main queue (the statistic behind the paper's shuffle-reduction
	// discussion: "we collected statistics on how many times the main
	// waiting queue is altered").
	QueueAlterations uint64
	// Flushes counts secondary→main queue transfers (both the
	// empty-main-queue case and the fairness case).
	Flushes uint64
}

// Lock is a CNA lock. Its shared state — the only memory other threads'
// hot paths touch — is the single tail word, padded onto its own cache
// line so that arriving threads' tail swaps do not invalidate the
// holder-read configuration (and optional statistics) below it.
type Lock struct {
	q locks.Queue
	_ [7]uint64

	opts  Options
	wait  waiter.Policy // waiting policy; read-only once the lock is shared
	stats *Stats        // nil until EnableStats: default builds write no counters

	// forceKeepLocal overrides keepLockLocal for deterministic tests:
	// 0 = use the PRNG policy, +1 = always keep local, -1 = never.
	forceKeepLocal int
}

// New returns a CNA lock with the paper's default options.
func New() *Lock { return NewWithOptions(DefaultOptions()) }

// NewWithOptions returns a CNA lock with explicit policy knobs.
func NewWithOptions(opts Options) *Lock {
	return &Lock{opts: opts, wait: waiter.Default}
}

// Name implements locks.Mutex. "CNA-opt" is the canonical spelling of
// the paper's "CNA (opt)" variant (registry names, CLI flags and Name()
// must agree; see internal/lockreg).
func (l *Lock) Name() string {
	if l.opts.ShuffleReduction {
		return "CNA-opt" + l.wait.Suffix()
	}
	return "CNA" + l.wait.Suffix()
}

// SetWait implements waiter.Setter: it selects the waiting policy used
// by the contended spin-word wait and the successor wakes. Call before
// the lock is shared.
func (l *Lock) SetWait(p waiter.Policy) { l.wait = p }

// EnableStats implements locks.StatsEnabler: it switches on holder-side
// statistics collection. Call before the lock is shared.
func (l *Lock) EnableStats() {
	if l.stats == nil {
		l.stats = &Stats{Handover: locks.NewHandoverCounter()}
	}
}

// Stats exposes the lock's counters. Read only while the lock is idle.
// Without EnableStats the returned snapshot is all zeros.
func (l *Lock) Stats() *Stats {
	if l.stats == nil {
		return &Stats{Handover: locks.NewHandoverCounter()}
	}
	return l.stats
}

// Lock acquires the lock for t. This is Figure 3 of the paper: a single
// atomic exchange on the tail, then local spinning on the node, t's own
// node for its nesting depth.
func (l *Lock) Lock(t *locks.Thread) {
	l.lockNode(t.Node(t.AcquireSlot()), t)
}

// TryLock implements locks.Mutex: Queue.TryLock, one CAS on the empty
// tail — the composed fast path Fissile Locks put in front of queue
// machinery. A success is exactly the uncontended Lock path (socket
// stays -1, which tells unlockNode the secondary queue is empty and the
// spin word was never written); a failure publishes nothing, touches no
// waiter state and returns the nesting slot.
func (l *Lock) TryLock(t *locks.Thread) bool {
	me := t.Node(t.AcquireSlot())
	me.Socket = -1
	if l.q.TryLock(me) {
		if st := l.stats; st != nil {
			st.Handover.Record(t.Socket)
		}
		return true
	}
	t.ReleaseSlot()
	return false
}

// Unlock releases the lock for t (Figure 4 of the paper).
func (l *Lock) Unlock(t *locks.Thread) {
	l.unlockNode(t.Node(t.ReleaseSlot()), t)
}

// LockTimeout implements locks.TimedMutex via Queue.LockUntil, with
// the socket recorded before the node is published. A waiter that
// accepts an at-the-buzzer grant inherits whatever spin value the
// releaser committed — possibly the secondary-queue head — so its
// eventual unlock carries the secondary queue onward as usual.
func (l *Lock) LockTimeout(t *locks.Thread, d time.Duration) bool {
	me := t.Node(t.AcquireSlot())
	me.Socket = int32(t.Socket)
	v, ok := l.q.LockUntil(me, l.wait, time.Now().Add(d))
	if !ok {
		t.Retire()
		return false
	}
	if v == nil {
		// Entered an empty queue with the socket recorded, so unlockNode
		// will read the spin word rather than derive it: store the
		// empty-secondary sentinel.
		me.Spin.Store(granted)
	}
	if st := l.stats; st != nil {
		st.Handover.Record(t.Socket)
	}
	return true
}

// lockNode runs the acquisition protocol on an explicit node.
func (l *Lock) lockNode(me *locks.Node, t *locks.Thread) {
	me.ClearNext()
	me.Socket = -1

	// Add myself to the main queue — the only atomic in the lock path.
	tail := l.q.Tail.Swap(me)
	if tail == nil {
		// No one there: we hold the lock with no secondary queue. The
		// pseudo-code records that by setting me->spin = 1; here the
		// still-set socket == -1 carries the same fact to unlockNode, so
		// the fast path writes nothing beyond the link reset and the tail
		// swap — this is what keeps CNA at MCS speed single-threaded.
		if st := l.stats; st != nil {
			st.Handover.Record(t.Socket)
		}
		return
	}
	// Someone there; clear the spin word and the park residue (deferred
	// off the fast path — the predecessor cannot observe this node until
	// it is linked in), record our socket, and link. The socket lookup
	// is deliberately on the contended path only.
	me.Spin.Store(nil)
	me.Socket = int32(t.Socket)
	l.wait.Prepare(&me.Wait)
	tail.Next.Store(me)
	// Wait for the lock to become available.
	l.wait.Wait(&me.Wait, me.Ready)
	if st := l.stats; st != nil {
		st.Handover.Record(t.Socket)
	}
}

// unlockNode runs the release protocol on an explicit node. The holder's
// spin word is loaded at most once: an empty-queue entrant (socket still
// -1) never had its spin word written, so its value is derived instead
// of read, and nobody but the holder writes the holder's spin word, so
// the local copy (threaded through findSuccessor, which may replace it
// when it starts a secondary queue) stays authoritative for the whole
// release.
//
// The body is a loop so a grant refused by an abandoned timed waiter
// continues the release from that tombstone, exactly like the MCS skip
// walk — with cur standing
// in for the holder's node and the holder-era sp and socket carried
// along unchanged. For an all-untimed queue every grant succeeds on the
// first attempt and the loop body runs once, matching the pre-timeout
// release instruction for instruction.
func (l *Lock) unlockNode(me *locks.Node, t *locks.Thread) {
	cur := me
	next := cur.Next.Load()
	sp := granted
	if me.Socket != -1 {
		sp = me.Spin.Load()
	}
	mySocket := me.Socket
	if mySocket == -1 {
		mySocket = int32(t.Socket)
	}
	for {
		if next == nil {
			// No linked successor in the main queue.
			if sp == granted {
				// Secondary queue empty too: try to swing the tail to
				// nil, leaving the lock completely free.
				if l.q.Tail.CompareAndSwap(cur, nil) {
					return
				}
			} else {
				// Main queue looks empty but the secondary queue is not:
				// try to make the secondary queue the new main queue and
				// hand the lock to its head. (Secondary nodes are never
				// timed — see the TState comment — so the grant below
				// cannot fail in practice; the fallback costs nothing.)
				if l.q.Tail.CompareAndSwap(cur, sp.SecTail.Load()) {
					if st := l.stats; st != nil {
						st.Flushes++
					}
					head := sp
					sp = granted // the secondary queue is now the main queue
					if head.Grant(l.wait, granted) {
						return
					}
					cur = head
					next = cur.Next.Load()
					continue
				}
			}
			// The CAS failed: a thread swapped the tail after our
			// next-load and is about to link in. Wait for the successor.
			next = cur.AwaitNext()
		}

		// Shuffle reduction (Section 6): under light contention, with an
		// empty secondary queue, skip the successor scan with high
		// probability and behave like MCS.
		if l.opts.ShuffleReduction && sp == granted &&
			t.RNG.Next()&l.opts.ShuffleMask != 0 {
			if next.Grant(l.wait, granted) {
				return
			}
			cur = next
			next = cur.Next.Load()
			continue
		}

		// Determine the next lock holder and pass the lock via its spin
		// field.
		var succ *locks.Node
		if l.keepLockLocal(t) {
			succ, sp = l.findSuccessor(next, sp, mySocket)
		}
		switch {
		case succ != nil:
			// Hand over on-socket (or to a timed waiter the scan stopped
			// at), forwarding the secondary-queue head (or the sentinel)
			// in the successor's spin field. The value stored is always
			// non-nil: an empty-queue entrant set it to granted.
			if succ.Grant(l.wait, sp) {
				return
			}
			cur = succ
		case sp != granted:
			// No same-socket successor (or fairness triggered): splice
			// the secondary queue in front of our main-queue successor
			// and hand the lock to the secondary head. Its SecTail needs
			// no clearing — the new holder never reads it (cf. Figure
			// 1(g)).
			sp.SecTail.Load().Next.Store(next)
			if st := l.stats; st != nil {
				st.Flushes++
			}
			head := sp
			sp = granted // fully spliced: one main queue again
			if head.Grant(l.wait, granted) {
				return
			}
			cur = head
		default:
			// Secondary queue empty: plain MCS handover.
			if next.Grant(l.wait, granted) {
				return
			}
			cur = next
		}
		next = cur.Next.Load()
	}
}

// keepLockLocal implements the paper's long-term fairness policy: keep
// the lock on this socket unless a low-probability draw says otherwise.
func (l *Lock) keepLockLocal(t *locks.Thread) bool {
	switch l.forceKeepLocal {
	case 1:
		return true
	case -1:
		return false
	}
	if l.opts.FairnessCountdown {
		if t.KeepLocal == 0 {
			// Redraw the budget; returning false here is the "once the
			// number reaches 0, ... have keep_lock_local return zero"
			// step of Section 6.
			t.KeepLocal = t.RNG.Next() & l.opts.KeepLocalMask
			return false
		}
		t.KeepLocal--
		return true
	}
	return t.RNG.Next()&l.opts.KeepLocalMask != 0
}

// findSuccessor is Figure 5 of the paper: scan the main queue (starting
// at next, the holder's already-loaded successor) for a waiter on my
// socket; move everything skipped onto the secondary queue. sp is the
// holder's current spin value; the possibly updated value (when the
// moved run starts a fresh secondary queue) is returned alongside the
// successor, so the caller never re-reads the spin word. Returns a nil
// successor (without touching the queues) if no such waiter is linked.
// The holder's own spin word is deliberately not rewritten: ownership of
// the secondary queue travels to the successor via the returned value.
//
// A timed waiter terminates the scan exactly like a same-socket one —
// it is returned as the successor rather than moved — which is the
// invariant keeping the secondary queue free of timed nodes (see the
// TState comment). The NUMA policy concedes one off-socket handover for
// it; the release loop skips it in O(1) if it already abandoned.
func (l *Lock) findSuccessor(next, sp *locks.Node, mySocket int32) (*locks.Node, *locks.Node) {
	// Check if my immediate successor is on the same socket (or timed).
	if next.Socket == mySocket || next.TState.Load() != locks.TSClean {
		return next, sp
	}
	secHead := next
	secTail := next
	cur := next.Next.Load()
	moved := uint64(1)

	// Traverse the main queue.
	for cur != nil {
		if cur.Socket == mySocket || cur.TState.Load() != locks.TSClean {
			// Move [secHead, secTail] to the secondary queue: append to
			// its tail if it exists, otherwise the run becomes the queue
			// and its head is the new spin value.
			if sp != granted {
				sp.SecTail.Load().Next.Store(secHead)
			} else {
				sp = secHead
			}
			secTail.Next.Store(nil)
			sp.SecTail.Store(secTail)
			if st := l.stats; st != nil {
				st.QueueAlterations++
				st.SecondaryMoves += moved
			}
			return cur, sp
		}
		secTail = cur
		moved++
		cur = cur.Next.Load()
	}
	return nil, sp
}

var _ locks.Mutex = (*Lock)(nil)
var _ locks.TimedMutex = (*Lock)(nil)
var _ locks.StatsEnabler = (*Lock)(nil)
