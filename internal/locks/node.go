package locks

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/spinwait"
	"repro/internal/waiter"
)

// Node is the queue node of the MCS-family locks: MCS, MCSCR and CNA
// (internal/core). Nodes belong to threads, not to locks: a Thread
// holds one per nesting depth, reuses it across acquisitions, and
// carries it (implicitly, via the depth) from Lock to Unlock. A node is
// exactly one cache line (asserted in node_test.go): cf. the paper's
// cna_node_t {spin, socket, secTail, next}.
type Node struct {
	// Spin is the word the owner waits on: nil while it waits, non-nil
	// once a releaser granted it the lock. MCS grants a sentinel; CNA
	// also passes its secondary queue's head in it (see internal/core).
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

// The timed-acquisition ("TState") protocol, Scott-&-Scherer-style. A
// timed waiter arms its node before the tail swap publishes it; from
// then on the node's fate is decided by a single CAS race between the
// granting releaser (TSArmed → TSGranted, then the normal grant store;
// see Grant) and the timed-out waiter (TSArmed → TSAbandoned, then it
// leaves; see Thread.Expire). A releaser that finds TSAbandoned skips
// the node, reading its next link or emptying the queue with the usual
// tail CAS when it is last. The abandoned node stays behind as a
// tombstone and is garbage once a release walk has passed it: its owner
// took a fresh node for that depth when it left, so no acquisition, of
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

// Expire settles a timed wait on n, the node at t's top nesting depth,
// whose deadline passed before a grant was seen. If the waiter wins the
// race (TSArmed → TSAbandoned), n stays queued as a tombstone, t gives
// the depth back and takes a freshly allocated node for it, and Expire
// returns false. Otherwise a releaser committed the grant: Expire waits
// for the grant store and returns true, and the caller holds the lock
// (and disarms n, as after any timed grant).
func (t *Thread) Expire(n *Node) bool {
	if n.TState.CompareAndSwap(TSArmed, TSAbandoned) {
		t.nodes[t.ReleaseSlot()] = new(Node).init()
		return false
	}
	var s spinwait.Spinner
	for !n.Ready() {
		s.Pause()
	}
	return true
}
