// Package qspin is a Go port of the Linux kernel's qspinlock, the
// synchronization construct Section 3 of the CNA paper describes and the
// one the paper's kernel patch modifies.
//
// A qspinlock is exactly four bytes, divided into three parts:
//
//	bits  0..7  — the lock value (locked byte)
//	bit   8     — the pending bit
//	bits 16..31 — the queue tail: ((cpu+1) << 2 | nesting-index) << 16
//
// Acquisition first tries to flip the word 0→1 (the test-and-set fast
// path). If the lock is held but otherwise uncontended, the thread sets
// the pending bit and waits for the holder to leave. Under real
// contention it enters an MCS queue whose nodes are statically
// preallocated per CPU — four per CPU, because the kernel limits spinlock
// nesting contexts to four — which is what lets the tail be a 16-bit
// encoding instead of a pointer and the whole lock fit in 4 bytes.
// Release is a single byte-clear and never touches queue nodes.
//
// A Domain holds the per-CPU node storage and the slow-path policy:
// PolicyStock is the mainline MCS slow path; PolicyCNA replaces it with
// the paper's compact NUMA-aware queue management, as the paper's kernel
// patch does ("we modified the slow path acquisition function
// (queued_spin_lock_slowpath in qspinlock.c) to use CNA instead of MCS").
// The lock word layout, fast path, pending path and unlock are identical
// under both policies.
//
// There is one slow path, as in the kernel: queued_spin_lock_slowpath
// has no timed form, so a waiter that enters the queue stays until it
// is granted the head role, and queue waiters spin (kernel spinlocks
// are taken in contexts that may not sleep). Callers that need
// deadlines or parked waiters use the user-space locks in
// internal/locks.
//
// One structural difference from user-space CNA, inherited from the
// kernel patch: release never touches nodes, so the CNA successor scan
// runs when a thread that just acquired the lock promotes the next queue
// head, rather than in unlock. The admission policy is the same; only
// which thread executes the reordering differs.
package qspin

import (
	"fmt"
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/prng"
	"repro/internal/spinwait"
)

// Lock-word layout constants (mirroring the kernel's _Q_* values).
const (
	lockedVal  uint32 = 1      // locked byte set
	lockedMask uint32 = 0xff   // bits 0..7
	pendingBit uint32 = 1 << 8 // bit 8
	tailShift         = 16     // tail occupies bits 16..31
	tailMask   uint32 = 0xffff0000
	maxNesting        = 4 // kernel: four per-CPU queue nodes
)

// SpinLock is a 4-byte spin lock — the same size as the kernel's
// spinlock_t in its default configuration, which is the constraint that
// rules out hierarchical NUMA-aware locks ("any increase to the size of
// the lock would be unacceptable").
type SpinLock struct {
	val atomic.Uint32
}

// TryLock attempts the uncontended fast path once.
func (l *SpinLock) TryLock() bool {
	return l.val.CompareAndSwap(0, lockedVal)
}

// Unlock releases the lock: a single subtraction of the locked byte,
// exactly like the kernel's queued_spin_unlock. It needs no per-CPU
// state, which is why the kernel (and this port) never carries queue
// nodes from lock to unlock.
func (l *SpinLock) Unlock() {
	l.val.Add(^uint32(0)) // subtract lockedVal (1)
}

// IsLocked reports whether the locked byte is set (debug/tests).
func (l *SpinLock) IsLocked() bool { return l.val.Load()&lockedMask != 0 }

// Value exposes the raw lock word (tests).
func (l *SpinLock) Value() uint32 { return l.val.Load() }

// Policy selects the slow-path algorithm.
type Policy int

const (
	// PolicyStock is the mainline kernel MCS slow path.
	PolicyStock Policy = iota
	// PolicyCNA is the paper's compact NUMA-aware slow path.
	PolicyCNA
)

func (p Policy) String() string {
	if p == PolicyCNA {
		return "CNA"
	}
	return "stock"
}

// qnode is one per-CPU queue node. Its waiter spins until its
// predecessor grants it the queue-head role with one store to the spin
// field, as in the kernel: there is no timed wait, so a queued node
// never leaves early and a promotion never meets one it must skip.
//
// The spin field multiplexes the wait flag and the CNA secondary-queue
// head: 0 = waiting, 1 = promoted to queue head with empty secondary
// queue, >= 4 = promoted, value is the tail-encoding of the secondary
// queue's head (encodings are always >= 4 because cpu+1 >= 1 is shifted
// left by 2). This mirrors the kernel CNA patch, which smuggles a
// pointer through the node's locked field; an encoding keeps the trick
// garbage-collector-safe in Go.
type qnode struct {
	spin    atomic.Uint32
	next    atomic.Pointer[qnode]
	secTail atomic.Pointer[qnode]
	socket  int32
	enc     uint32 // this node's own tail encoding (constant after init)
}

// Stats aggregates slow-path behaviour across all locks of a domain.
// Counters are updated with atomics because different locks' holders run
// concurrently. Collection is opt-in via EnableStats; a default-built
// domain performs no counter writes (an atomic add per acquisition is a
// measurable fraction of the uncontended fast path).
type Stats struct {
	FastPath       atomic.Uint64 // acquisitions via the 0→1 CAS
	PendingPath    atomic.Uint64 // acquisitions via the pending bit
	SlowPath       atomic.Uint64 // acquisitions via the MCS queue
	LocalHandover  atomic.Uint64 // queue-head promotions to the same socket
	RemoteHandover atomic.Uint64 // queue-head promotions across sockets
	SecondaryMoves atomic.Uint64 // nodes moved to the secondary queue (CNA)
	Flushes        atomic.Uint64 // secondary-queue flushes (CNA)
}

// Domain is the per-CPU node storage plus policy shared by every
// SpinLock used with it — the analogue of the kernel's global per-CPU
// qnodes array.
type Domain struct {
	policy Policy
	nodes  [][maxNesting]qnode
	count  []int32 // per-CPU nesting depth; each CPU is single-threaded
	socket []int32 // cpu → NUMA node
	rng    []prng.Xoroshiro
	// keepLocalMask is CNA's THRESHOLD (0xffff in the paper).
	keepLocalMask uint64
	stats         *Stats // nil until EnableStats: default builds write no counters
}

// NewDomain builds a Domain for the given topology and slow-path policy.
func NewDomain(topo numa.Topology, policy Policy) *Domain {
	ncpu := topo.NumCPUs()
	d := &Domain{
		policy:        policy,
		nodes:         make([][maxNesting]qnode, ncpu),
		count:         make([]int32, ncpu),
		socket:        make([]int32, ncpu),
		rng:           make([]prng.Xoroshiro, ncpu),
		keepLocalMask: 0xffff,
	}
	for cpu := 0; cpu < ncpu; cpu++ {
		d.socket[cpu] = int32(topo.SocketOf(cpu))
		d.rng[cpu].Seed(uint64(cpu)*0x9e3779b97f4a7c15 + 1)
		for idx := 0; idx < maxNesting; idx++ {
			d.nodes[cpu][idx].enc = encode(cpu, idx)
		}
	}
	return d
}

// SetKeepLocalMask overrides CNA's fairness threshold (tests/ablations).
func (d *Domain) SetKeepLocalMask(mask uint64) { d.keepLocalMask = mask }

// Policy returns the domain's slow-path policy.
func (d *Domain) Policy() Policy { return d.policy }

// EnableStats switches on acquisition-path counters. Call before the
// domain is shared.
func (d *Domain) EnableStats() {
	if d.stats == nil {
		d.stats = &Stats{}
	}
}

// Stats returns the domain's counters. Without EnableStats the returned
// snapshot is all zeros.
func (d *Domain) Stats() *Stats {
	if d.stats == nil {
		return &Stats{}
	}
	return d.stats
}

// NumCPUs returns the number of CPUs the domain was built for.
func (d *Domain) NumCPUs() int { return len(d.nodes) }

// encode packs (cpu, nesting index) into the 16-bit tail value; 0 means
// "no tail", hence the +1.
func encode(cpu, idx int) uint32 {
	return uint32(cpu+1)<<2 | uint32(idx)
}

// decode returns the node named by a non-zero tail encoding.
func (d *Domain) decode(enc uint32) *qnode {
	cpu := int(enc>>2) - 1
	idx := int(enc & 3)
	return &d.nodes[cpu][idx]
}

// TryLock attempts the uncontended fast path once on behalf of the
// given CPU: the 0→1 CAS on the lock word, never the pending bit and
// never the queue, so a failed TryLock leaves no trace — the same
// composed-fast-path shape the user-space locks expose through
// locks.Mutex.TryLock.
func (d *Domain) TryLock(l *SpinLock, cpu int) bool {
	if l.TryLock() {
		if st := d.stats; st != nil {
			st.FastPath.Add(1)
		}
		return true
	}
	return false
}

// Lock acquires l on behalf of the given (virtual) CPU.
func (d *Domain) Lock(l *SpinLock, cpu int) {
	if l.val.CompareAndSwap(0, lockedVal) {
		if st := d.stats; st != nil {
			st.FastPath.Add(1)
		}
		return
	}
	d.slowPath(l, cpu)
}

// slowPath is queued_spin_lock_slowpath: pending path, then the queue.
func (d *Domain) slowPath(l *SpinLock, cpu int) {
	// Pending path: if the word shows only the locked byte (no pending
	// bit, no tail), become the single spinning waiter.
	var s spinwait.Spinner
	for {
		val := l.val.Load()
		if val == 0 {
			if l.val.CompareAndSwap(0, lockedVal) {
				if st := d.stats; st != nil {
					st.FastPath.Add(1)
				}
				return
			}
			continue
		}
		if val&^lockedMask != 0 {
			break // pending or tail set: real contention, go queue
		}
		if l.val.CompareAndSwap(val, val|pendingBit) {
			// We own the pending bit; wait for the holder to leave.
			for l.val.Load()&lockedMask != 0 {
				s.Pause()
			}
			// Take the lock: set locked, clear pending (add 1-256, which
			// wraps to the right delta in uint32 arithmetic).
			l.val.Add(lockedVal + ^pendingBit + 1)
			if st := d.stats; st != nil {
				st.PendingPath.Add(1)
			}
			return
		}
	}
	d.queue(l, cpu)
}

// queue is the MCS portion of the slow path.
func (d *Domain) queue(l *SpinLock, cpu int) {
	idx := d.count[cpu]
	if int(idx) >= maxNesting {
		panic(fmt.Sprintf("qspin: CPU %d exceeded %d nesting contexts", cpu, maxNesting))
	}
	d.count[cpu]++
	node := &d.nodes[cpu][idx]
	node.spin.Store(0)
	node.next.Store(nil)
	node.socket = d.socket[cpu]

	// Publish ourselves as the tail.
	old := d.xchgTail(l, node.enc)
	if old&tailMask != 0 {
		// Link behind the previous tail and spin until promoted to the
		// queue head.
		prev := d.decode(old >> tailShift)
		prev.next.Store(node)
		var s spinwait.Spinner
		for node.spin.Load() == 0 {
			s.Pause()
		}
	} else {
		// We entered an empty queue: mark the spin word so the CNA
		// handoff logic knows the secondary queue is empty (paper line 8).
		node.spin.Store(1)
	}

	// We are the queue head: wait for the holder and any pending waiter
	// to go away, then claim the lock.
	var s spinwait.Spinner
	for {
		val := l.val.Load()
		if val&(lockedMask|pendingBit) == 0 {
			break
		}
		s.Pause()
	}

	// If we are also the queue tail, try to leave no trace behind.
	if d.tryClearTail(l, node) {
		d.count[cpu]--
		if st := d.stats; st != nil {
			st.SlowPath.Add(1)
		}
		return
	}

	// Otherwise set the locked byte (tail stays: waiters exist), then
	// promote the next queue head.
	l.val.Add(lockedVal)
	var sl spinwait.Spinner
	next := node.next.Load()
	for next == nil {
		sl.Pause()
		next = node.next.Load()
	}
	d.promote(node, next, cpu)
	d.count[cpu]--
	if st := d.stats; st != nil {
		st.SlowPath.Add(1)
	}
}

// xchgTail atomically replaces the tail bits with enc, preserving the
// rest of the word, and returns the previous word.
func (d *Domain) xchgTail(l *SpinLock, enc uint32) uint32 {
	for {
		old := l.val.Load()
		nv := old&^tailMask | enc<<tailShift
		if l.val.CompareAndSwap(old, nv) {
			return old
		}
	}
}

// tryClearTail attempts the "we are the last waiter" exit. Under CNA a
// non-empty secondary queue must survive: the tail is swung to the
// secondary tail and the secondary head becomes the queue head, exactly
// like the kernel patch's cna_try_clear_tail.
func (d *Domain) tryClearTail(l *SpinLock, node *qnode) bool {
	val := l.val.Load()
	if val&tailMask != node.enc<<tailShift {
		return false
	}
	sp := node.spin.Load()
	if d.policy == PolicyStock || sp <= 1 {
		// No secondary queue: set locked, clear tail.
		return l.val.CompareAndSwap(val, lockedVal)
	}
	secHead := d.decode(sp)
	secTail := secHead.secTail.Load()
	if l.val.CompareAndSwap(val, lockedVal|secTail.enc<<tailShift) {
		if st := d.stats; st != nil {
			st.Flushes.Add(1)
		}
		d.grant(node, secHead, 1)
		return true
	}
	return false
}

// grant hands the queue-head role from the holder's node to succ with
// one store of sp (1, or the secondary queue's head encoding) to the
// word succ spins on. The handover is counted first: once the store
// lands, succ's CPU may reuse the node, so the holder must not read it
// afterwards.
func (d *Domain) grant(node, succ *qnode, sp uint32) {
	d.recordHandover(node, succ)
	succ.spin.Store(sp)
}

// promote makes the next waiter the new queue head. Stock policy grants
// the linked successor, FIFO; CNA picks a same-socket waiter, shuffling
// skipped nodes onto the secondary queue, with the paper's probabilistic
// fairness flush. The holder's spin word is loaded once — only the
// holder writes it, so the local copy (updated by findSuccessor when a
// moved run starts a fresh secondary queue) stays authoritative.
func (d *Domain) promote(node, next *qnode, cpu int) {
	if d.policy == PolicyStock {
		d.grant(node, next, 1)
		return
	}
	sp := node.spin.Load()
	var succ *qnode
	if d.keepLockLocal(cpu) {
		succ, sp = d.findSuccessor(next, sp, cpu)
	}
	switch {
	case succ != nil:
		// Hand over on-socket, forwarding 1 or the secondary head's
		// encoding in the successor's spin field.
		d.grant(node, succ, sp)
	case sp > 1:
		// Fairness (or no same-socket waiter): splice the secondary
		// queue in front of the main-queue successor and promote its
		// head.
		secHead := d.decode(sp)
		secHead.secTail.Load().next.Store(next)
		if st := d.stats; st != nil {
			st.Flushes.Add(1)
		}
		d.grant(node, secHead, 1)
	default:
		d.grant(node, next, 1)
	}
}

// keepLockLocal is the paper's fairness policy.
func (d *Domain) keepLockLocal(cpu int) bool {
	return d.rng[cpu].Next()&d.keepLocalMask != 0
}

// findSuccessor scans the main queue (starting at next, the holder's
// already-loaded successor) for a waiter on this CPU's socket, moving
// skipped waiters to the secondary queue (Figure 5 of the paper, with
// tail encodings in place of pointers). sp is the holder's current spin
// value; the possibly updated value is returned alongside the successor
// so the caller never re-reads the spin word, and the holder's own spin
// word is not rewritten — ownership of the secondary queue travels to
// the successor via the returned value.
func (d *Domain) findSuccessor(next *qnode, sp uint32, cpu int) (*qnode, uint32) {
	mySocket := d.socket[cpu]
	if next.socket == mySocket {
		return next, sp
	}
	secHead := next
	secTail := next
	cur := next.next.Load()
	moved := uint64(1)
	for cur != nil {
		if cur.socket == mySocket {
			if sp > 1 {
				d.decode(sp).secTail.Load().next.Store(secHead)
			} else {
				sp = secHead.enc
			}
			secTail.next.Store(nil)
			d.decode(sp).secTail.Store(secTail)
			if st := d.stats; st != nil {
				st.SecondaryMoves.Add(moved)
			}
			return cur, sp
		}
		secTail = cur
		moved++
		cur = cur.next.Load()
	}
	return nil, sp
}

// recordHandover classifies a queue-head promotion as local or remote.
// A no-op unless EnableStats was called.
func (d *Domain) recordHandover(from, to *qnode) {
	st := d.stats
	if st == nil {
		return
	}
	if from.socket == to.socket {
		st.LocalHandover.Add(1)
	} else {
		st.RemoteHandover.Add(1)
	}
}
