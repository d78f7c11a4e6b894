package locks

import (
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/spinwait"
	"repro/internal/waiter"
)

// Node is the queue node of the MCS-family locks: MCS, MCSCR, CNA
// (internal/core), HMCS's leaves and the cohort MCS locals, which all
// queue it through a Queue; a reader waiting for an RW lock's writer
// (internal/locks/rw) waits on one too, on the lock's stack of waiting
// readers. Nodes belong to threads, not to locks: a Thread holds one per nesting depth,
// reuses it across acquisitions, and carries it (implicitly, via the
// depth) from Lock to Unlock. A node is exactly one cache line (asserted
// in node_test.go): cf. the paper's cna_node_t {spin, socket, secTail,
// next}.
type Node struct {
	// Spin is the word the owner waits on: nil while it waits, non-nil
	// once a releaser granted it the lock. MCS grants a sentinel; CNA
	// also passes its secondary queue's head in it (see internal/core);
	// HMCS and the cohort locals grant one of two sentinels that say
	// whether the composite lock came with the grant.
	Spin atomic.Pointer[Node]
	// Socket is the owner's NUMA node as CNA records it, or -1 when the
	// owner entered an empty queue and never looked it up. MCS and MCSCR
	// leave it alone.
	Socket int32
	// TState is the timed-acquisition state (see TSClean). It rides in
	// the alignment hole after Socket; untimed acquires never write it.
	TState atomic.Uint32
	// SecTail, meaningful only in a CNA secondary-queue head, points at
	// the secondary queue's last node so appending and flushing are O(1).
	SecTail atomic.Pointer[Node]
	// Next is the link to the queue successor.
	Next atomic.Pointer[Node]
	// Wait is the owner's park state and Ready its prebuilt grant
	// predicate (Spin != nil), both used only on the contended path.
	// Ready is built once, when the node is given to a thread, so a
	// contended wait passes the waiting policy a closure without
	// allocating one.
	Wait  waiter.State
	Ready func() bool
}

// init builds n's grant predicate and returns n.
func (n *Node) init() *Node {
	n.Ready = func() bool { return n.Spin.Load() != nil }
	return n
}

// NewNode returns a fresh node with its grant predicate built, for a
// lock that queues a node no thread carries (HMCS's per-socket root
// nodes).
func NewNode() *Node { return new(Node).init() }

// The timed-acquisition ("TState") protocol, Scott-&-Scherer-style. A
// timed waiter arms its node before the tail swap publishes it; from
// then on the node's fate is decided by a single CAS race between the
// granting releaser (TSArmed → TSGranted, then the normal grant store;
// see Grant) and the timed-out waiter (TSArmed → TSAbandoned, then it
// leaves; see Node.Abandon). A releaser that finds TSAbandoned skips
// the node, reading its next link or emptying the queue with the usual
// tail CAS when it is last. The abandoned node stays behind as a
// tombstone and is garbage once a release walk has passed it: its owner
// took a fresh node when it left (a thread for that depth, see
// Thread.Retire; HMCS for a socket's root node), so no acquisition, of
// this lock or any other, ever waits for a tombstone to leave a queue.
// A waiter that loses the race has the lock: it accepts the
// at-the-buzzer grant and reports success. Untimed waiters keep TState
// at TSClean and never touch it; the releaser pays one load of a line
// it is already writing the grant into.
const (
	TSClean     uint32 = iota // not a timed waiter
	TSArmed                   // timed waiter enqueued, may still abandon
	TSAbandoned               // waiter left; releasers skip the node
	TSGranted                 // releaser committed the grant to this node
)

// ClearNext resets the queue link with a plain (non-atomic) store. Legal
// only before the tail Swap publishes the node: until then no other
// thread holds a reference to it — the previous acquisition's unlock
// returned only after (atomically) observing any in-flight successor
// link, so no writer from an earlier round can still be pending. Skipping
// the atomic store matters because Go compiles atomic pointer stores to
// XCHG, a full memory barrier that profiles as ~20% of the uncontended
// acquire on its own.
func (n *Node) ClearNext() {
	*(*unsafe.Pointer)(unsafe.Pointer(&n.Next)) = nil
}

// Grant commits the lock to n — spin value v, then a wake through p —
// unless n's owner abandoned a timed wait: then it returns false and the
// releaser must skip n. For an untimed node this is the plain handover
// plus one load of the line the grant store writes anyway.
func (n *Node) Grant(p waiter.Policy, v *Node) bool {
	if n.TState.Load() != TSClean && !n.TState.CompareAndSwap(TSArmed, TSGranted) {
		return false // TSAbandoned
	}
	n.Spin.Store(v)
	p.Wake(&n.Wait)
	return true
}

// AwaitNext waits for the successor that swapped the tail after n to
// link in behind n, and returns it. The linking thread is between two
// instructions (never parked), so this stays a plain spin.
func (n *Node) AwaitNext() *Node {
	var s spinwait.Spinner
	next := n.Next.Load()
	for ; next == nil; next = n.Next.Load() {
		s.Pause()
	}
	return next
}

// Abandon settles a timed wait on the armed node n whose deadline
// passed before a grant was seen. If the waiter wins the race (TSArmed →
// TSAbandoned), n stays queued as a tombstone that release walks skip,
// its owner must never queue it again, and Abandon returns true.
// Otherwise a releaser committed the grant: Abandon waits for the grant
// store and returns false, and the caller holds the lock (and disarms n,
// as after any timed grant).
func (n *Node) Abandon() bool {
	if n.TState.CompareAndSwap(TSArmed, TSAbandoned) {
		return true
	}
	var s spinwait.Spinner
	for !n.Ready() {
		s.Pause()
	}
	return false
}

// Expire settles a timed wait on n, the node at t's top nesting depth,
// as Abandon does. If the waiter wins, t retires the depth's node (see
// Retire) and Expire returns false; if a releaser won, Expire returns
// true. Only the RW reader stack uses it: there a grant is a wake, not
// a read hold, and the reader retries admission once more. Queue locks
// settle through Queue.LockUntil and call Retire when it fails.
func (t *Thread) Expire(n *Node) bool {
	if n.Abandon() {
		t.Retire()
		return false
	}
	return true
}

// Retire gives back t's top nesting depth, whose node a timed wait left
// queued as a tombstone (Queue.LockUntil returned false), and gives the
// depth a fresh node, so t's next acquisition at that depth, of any
// lock, never waits for the tombstone.
func (t *Thread) Retire() { t.nodes[t.ReleaseSlot()] = NewNode() }

// Queue is the MCS queue every MCS-family lock here is built on: the
// tail word, and the enqueue, timed-abandonment and release protocols
// on the nodes it links. Locks whose release does more than grant the
// first live successor walk the links themselves: HMCS's in-cohort
// passes before its Unlock, and CNA's secondary queue and MCSCR's
// culling in releases of their own that reach Tail directly.
type Queue struct {
	Tail atomic.Pointer[Node]
}

// Lock enqueues n and waits, through p, for a releaser's grant. It
// returns nil when n entered an empty queue, with n's spin word and
// waiter state untouched (the uncontended path is one plain store and
// one swap), and otherwise the value the releaser granted.
func (q *Queue) Lock(n *Node, p waiter.Policy) *Node {
	n.ClearNext()
	prev := q.Tail.Swap(n)
	if prev == nil {
		return nil
	}
	// Contended: the predecessor can reach n only through the link
	// published below, so clearing the spin word and park residue here
	// (rather than before the swap) does not race the handover.
	n.Spin.Store(nil)
	p.Prepare(&n.Wait)
	prev.Next.Store(n)
	p.Wait(&n.Wait, n.Ready)
	return n.Spin.Load()
}

// LockUntil is Lock with a deadline, by the TState protocol (see
// TSClean). It reports whether n holds the lock: with Lock's value
// when it does, and n disarmed (TSClean). When the deadline passes
// before a grant and the waiter wins the abandon race, it returns false
// and n stays queued as a tombstone; the caller must never queue n
// again (a thread's node: Thread.Retire).
func (q *Queue) LockUntil(n *Node, p waiter.Policy, deadline time.Time) (*Node, bool) {
	n.ClearNext()
	// Everything is prepared and armed before the swap publishes n: a
	// releaser must never observe a timed node unarmed, and an
	// abandoning waiter cannot come back to finish deferred setup.
	n.Spin.Store(nil)
	p.Prepare(&n.Wait)
	n.TState.Store(TSArmed)
	if prev := q.Tail.Swap(n); prev != nil {
		prev.Next.Store(n)
		if !p.WaitUntil(&n.Wait, n.Ready, deadline) && n.Abandon() {
			return nil, false
		}
	}
	n.TState.Store(TSClean)
	return n.Spin.Load(), true
}

// TryLock enqueues n only into an empty queue: one CAS on the tail in
// place of Lock's swap. A failure publishes nothing and touches neither
// n's spin word nor its waiter state.
func (q *Queue) TryLock(n *Node) bool {
	n.ClearNext()
	return q.Tail.CompareAndSwap(nil, n)
}

// HasWaiter reports whether a node is queued behind n. Only n's owner,
// holding the lock, may call it.
func (q *Queue) HasWaiter(n *Node) bool {
	return n.Next.Load() != nil || q.Tail.Load() != n
}

// Unlock releases the lock n holds (or a walk has reached): it grants v,
// through p, to the first live successor, skipping the tombstones of
// abandoned timed waits, and reports true; or it empties the queue and
// reports false.
func (q *Queue) Unlock(n *Node, p waiter.Policy, v *Node) (delivered bool) {
	for {
		next := n.Next.Load()
		if next == nil {
			// No linked successor. If the tail is still n the queue is
			// empty; otherwise a successor swapped the tail and is
			// about to link in: wait for the link.
			if q.Tail.CompareAndSwap(n, nil) {
				return false
			}
			next = n.AwaitNext()
		}
		if next.Grant(p, v) {
			return true
		}
		n = next
	}
}
