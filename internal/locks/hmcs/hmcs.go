// Package hmcs implements the two-level HMCS lock of Chabbi, Fagan and
// Mellor-Crummey (PPoPP 2015): an MCS lock per socket plus a root MCS
// lock, with cohort-style passing between same-socket waiters. It is the
// strongest NUMA-aware competitor in the paper's plots ("CNA ... only lags
// behind HMCS by a narrow margin") and the clearest illustration of the
// space cost CNA eliminates: one padded queue per socket plus a root
// queue, versus CNA's single word.
package hmcs

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/locks"
	"repro/internal/spinwait"
	"repro/internal/waiter"
)

// Status values carried in a leaf node. Values in [1, threshold] are the
// running count of consecutive cohort passes.
const (
	statusWait   uint64 = math.MaxUint64     // still spinning
	statusAcqPar uint64 = math.MaxUint64 - 1 // promoted: must acquire the parent
	cohortStart  uint64 = 1                  // first holder in a cohort round
)

// DefaultThreshold bounds consecutive same-socket handovers (the HMCS
// paper's default passing threshold).
const DefaultThreshold = 64

// The timed-acquisition states, mirroring internal/locks/mcs.go where
// the protocol is documented in full. HMCS runs it at BOTH levels: a
// timed waiter can abandon its leaf node (the per-socket queue) and,
// after winning the leaf as the socket's representative, abandon the
// leaf's embedded root node in the root queue. The root node is shared
// by every thread of the socket, so all become-representative paths
// gate on its tstate being clean before touching it — a poisoned root
// node is still linked in the root queue, and reinitialising it there
// would corrupt the queue. The gate is bounded: the root is held by
// someone (that is why the timed representative gave up), and that
// holder's release walk skips and retires the tombstone.
const (
	tsClean     uint32 = iota // not a timed waiter / reusable
	tsArmed                   // timed waiter enqueued, may still abandon
	tsAbandoned               // waiter left; releasers skip and retire
	tsGranted                 // releaser committed the grant to this node
)

type leafNode struct {
	next   atomic.Pointer[leafNode]
	status atomic.Uint64
	// tstate is the timed-acquisition state machine (constants above);
	// untimed acquires never write it.
	tstate atomic.Uint32
	wait   waiter.State
	ready  func() bool // status has left statusWait
	_      [1]uint64   // pad to one 64-byte cache line
}

type rootNode struct {
	next   atomic.Pointer[rootNode]
	locked atomic.Bool
	// tstate guards the (socket-shared) root node's timed state; it
	// rides in the alignment hole after locked.
	tstate atomic.Uint32
	wait   waiter.State
	ready  func() bool // locked has been set
	_      [2]uint64   // pad to one 64-byte cache line
}

// awaitReusable spins until a release walk has retired a previously
// abandoned root node (see the tstate constants for the bound).
func (n *rootNode) awaitReusable() {
	var s spinwait.Spinner
	for n.tstate.Load() != tsClean {
		s.Pause()
	}
}

// awaitReusable is the leaf-node analogue.
func (n *leafNode) awaitReusable() {
	var s spinwait.Spinner
	for n.tstate.Load() != tsClean {
		s.Pause()
	}
}

// leaf is one socket's MCS queue plus its statically owned node in the
// root queue (the hierarchical structure that makes HMCS cost
// Ω(sockets) space).
type leaf struct {
	tail atomic.Pointer[leafNode]
	root rootNode
	_    [4]uint64
}

// HMCS is a two-level hierarchical MCS lock.
type HMCS struct {
	rootTail  atomic.Pointer[rootNode]
	leaves    []*leaf
	nodes     [][locks.MaxNesting]leafNode
	wait      waiter.Policy
	threshold uint64
	handover  *locks.HandoverCounter // nil until EnableStats: no counter writes by default
}

// New returns an HMCS lock for the given socket count and thread-ID bound,
// passing the lock within a socket up to threshold consecutive times.
func New(sockets, maxThreads int, threshold uint64) *HMCS {
	if sockets < 1 {
		panic("hmcs: need at least one socket")
	}
	if threshold < 1 {
		threshold = 1
	}
	l := &HMCS{
		leaves:    make([]*leaf, sockets),
		nodes:     make([][locks.MaxNesting]leafNode, maxThreads),
		wait:      waiter.Default,
		threshold: threshold,
	}
	for i := range l.leaves {
		lf := &leaf{}
		rn := &lf.root
		rn.ready = rn.locked.Load
		l.leaves[i] = lf
	}
	for i := range l.nodes {
		for j := range l.nodes[i] {
			n := &l.nodes[i][j]
			n.ready = func() bool { return n.status.Load() != statusWait }
		}
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
	me := &l.nodes[t.ID][t.AcquireSlot()]
	if me.tstate.Load() != tsClean {
		// Node still queued from an earlier timed-out acquire on this
		// slot; wait for a release walk to retire it.
		me.awaitReusable()
	}
	me.next.Store(nil)
	me.status.Store(statusWait)

	prev := lf.tail.Swap(me)
	if prev != nil {
		l.wait.Prepare(&me.wait)
		prev.next.Store(me)
		l.wait.Wait(&me.wait, me.ready)
		if me.status.Load() != statusAcqPar {
			// Ownership passed within the cohort; status carries the pass
			// count for our eventual release.
			if h := l.handover; h != nil {
				h.Record(t.Socket)
			}
			return
		}
	}
	// We are the socket's representative: acquire the root MCS lock with
	// the leaf's embedded root node (waiting out a previous
	// representative's abandoned tenure first — see the tstate gate).
	me.status.Store(cohortStart)
	rn := &lf.root
	if rn.tstate.Load() != tsClean {
		rn.awaitReusable()
	}
	rn.next.Store(nil)
	rn.locked.Store(false)
	rprev := l.rootTail.Swap(rn)
	if rprev != nil {
		l.wait.Prepare(&rn.wait)
		rprev.next.Store(rn)
		l.wait.Wait(&rn.wait, rn.ready)
	}
	if h := l.handover; h != nil {
		h.Record(t.Socket)
	}
}

// LockTimeout implements locks.TimedMutex: the tstate abandonment
// protocol (see the constant block) at both levels. A waiter that times
// out in the leaf queue abandons its leaf node; a representative that
// times out in the root queue abandons the leaf's root node, then
// releases the leaf it won — promoting a successor to representative
// (which will gate on the poisoned root node's retirement) or freeing
// the socket queue.
func (l *HMCS) LockTimeout(t *locks.Thread, d time.Duration) bool {
	lf := l.leaves[t.Socket]
	me := &l.nodes[t.ID][t.AcquireSlot()]
	if me.tstate.Load() != tsClean {
		t.ReleaseSlot()
		return false // node still queued; a timed attempt fails fast
	}
	deadline := time.Now().Add(d)
	me.next.Store(nil)
	me.status.Store(statusWait)
	l.wait.Prepare(&me.wait)
	me.tstate.Store(tsArmed)
	prev := lf.tail.Swap(me)
	if prev == nil {
		me.tstate.Store(tsClean)
	} else {
		prev.next.Store(me)
		if !l.wait.WaitUntil(&me.wait, me.ready, deadline) {
			if me.tstate.CompareAndSwap(tsArmed, tsAbandoned) {
				t.ReleaseSlot()
				return false
			}
			// tsGranted: accept the at-the-buzzer leaf grant and carry on
			// (a representative promotion proceeds to the root with the
			// expired deadline and gives up there in O(1) if contended).
			var s spinwait.Spinner
			for !me.ready() {
				s.Pause()
			}
		}
		me.tstate.Store(tsClean)
		if me.status.Load() != statusAcqPar {
			if h := l.handover; h != nil {
				h.Record(t.Socket)
			}
			return true // cohort pass: the composite lock is ours
		}
	}
	// Representative: timed root acquisition. A poisoned root node is
	// still linked in the root queue; the timed path fails fast rather
	// than waiting out its retirement.
	me.status.Store(cohortStart)
	rn := &lf.root
	if rn.tstate.Load() != tsClean {
		l.promoteOrFree(lf, me)
		t.ReleaseSlot()
		return false
	}
	rn.next.Store(nil)
	rn.locked.Store(false)
	l.wait.Prepare(&rn.wait)
	rn.tstate.Store(tsArmed)
	rprev := l.rootTail.Swap(rn)
	if rprev == nil {
		rn.tstate.Store(tsClean)
		if h := l.handover; h != nil {
			h.Record(t.Socket)
		}
		return true
	}
	rprev.next.Store(rn)
	if l.wait.WaitUntil(&rn.wait, rn.ready, deadline) {
		rn.tstate.Store(tsClean)
		if h := l.handover; h != nil {
			h.Record(t.Socket)
		}
		return true
	}
	if rn.tstate.CompareAndSwap(tsArmed, tsAbandoned) {
		// Abandoned at the root: hand the leaf back without the
		// composite lock.
		l.promoteOrFree(lf, me)
		t.ReleaseSlot()
		return false
	}
	// tsGranted: the root releaser committed at the buzzer.
	var s spinwait.Spinner
	for !rn.ready() {
		s.Pause()
	}
	rn.tstate.Store(tsClean)
	if h := l.handover; h != nil {
		h.Record(t.Socket)
	}
	return true
}

// TryLock implements locks.Mutex: one CAS on the empty leaf tail, then
// one CAS on the empty root tail. When the root is busy the leaf
// enqueue is undone with a reverse CAS; if a successor already linked
// in behind us (so the node cannot be unpublished), the successor is
// promoted to socket representative with statusAcqPar — exactly the
// handoff an exhausted-budget Unlock performs — and we leave having
// never owned the lock. Either way a failed TryLock ends with no queue
// presence and the nesting slot returned.
func (l *HMCS) TryLock(t *locks.Thread) bool {
	lf := l.leaves[t.Socket]
	me := &l.nodes[t.ID][t.AcquireSlot()]
	if me.tstate.Load() != tsClean {
		// Node still queued from a timed-out acquire: clearing its next
		// link would cut the queue behind it, stranding the release walk
		// and every waiter past the tombstone. Fail fast instead.
		t.ReleaseSlot()
		return false
	}
	me.next.Store(nil)
	me.status.Store(cohortStart)
	if !lf.tail.CompareAndSwap(nil, me) {
		t.ReleaseSlot()
		return false
	}
	// We are the socket's representative; try the root with the leaf's
	// embedded root node. A poisoned root node is still linked in the
	// root queue (so the root cannot be free) and must not be touched:
	// retreat immediately.
	rn := &lf.root
	if rn.tstate.Load() != tsClean {
		l.promoteOrFree(lf, me)
		t.ReleaseSlot()
		return false
	}
	rn.next.Store(nil)
	rn.locked.Store(false)
	if l.rootTail.CompareAndSwap(nil, rn) {
		if h := l.handover; h != nil {
			h.Record(t.Socket)
		}
		return true
	}
	// Root busy: retreat from the leaf queue (freeing it or promoting a
	// live successor to representative in our place).
	l.promoteOrFree(lf, me)
	t.ReleaseSlot()
	return false
}

// grantLeaf commits a leaf handover (a cohort pass count or a
// statusAcqPar promotion) to succ unless succ abandoned its timed wait
// (false — the caller must skip the node). For an untimed succ this is
// the old handover plus one load of a line the status store writes.
func (l *HMCS) grantLeaf(succ *leafNode, status uint64) bool {
	if succ.tstate.Load() != tsClean {
		if !succ.tstate.CompareAndSwap(tsArmed, tsGranted) {
			return false // tsAbandoned
		}
	}
	succ.status.Store(status)
	l.wait.Wake(&succ.wait)
	return true
}

// grantRoot is the root-level analogue of grantLeaf.
func (l *HMCS) grantRoot(next *rootNode) bool {
	if next.tstate.Load() != tsClean {
		if !next.tstate.CompareAndSwap(tsArmed, tsGranted) {
			return false // tsAbandoned
		}
	}
	next.locked.Store(true)
	l.wait.Wake(&next.wait)
	return true
}

// Unlock releases the lock for t.
func (l *HMCS) Unlock(t *locks.Thread) {
	lf := l.leaves[t.Socket]
	me := &l.nodes[t.ID][t.ReleaseSlot()]
	count := me.status.Load()

	cur := me
	if count < l.threshold {
		// Budget remains: pass within the cohort to the first live
		// linked successor, skipping (and retiring) abandoned ones.
		for {
			succ := cur.next.Load()
			if succ == nil {
				break
			}
			if cur != me {
				cur.tstate.Store(tsClean) // tombstone off the queue: retire
			}
			if l.grantLeaf(succ, count+1) {
				return
			}
			cur = succ
		}
	}
	// Either the budget is exhausted or no live cohort successor is
	// linked from cur: release the root lock, then the leaf queue (cur,
	// if not our own node, is a tombstone promoteOrFree retires).
	l.releaseRoot(lf)
	l.promoteOrFreeFrom(lf, me, cur)
}

// promoteOrFree releases the leaf queue from the holder's node without
// touching the root: free the socket queue if empty, else promote the
// first live successor to representative (statusAcqPar), skipping and
// retiring abandoned tombstones.
func (l *HMCS) promoteOrFree(lf *leaf, me *leafNode) {
	l.promoteOrFreeFrom(lf, me, me)
}

// promoteOrFreeFrom is promoteOrFree resuming from cur, partway down a
// tombstone walk (me marks the holder's own node, which is never
// retired — the caller owns it).
func (l *HMCS) promoteOrFreeFrom(lf *leaf, me, cur *leafNode) {
	for {
		succ := cur.next.Load()
		if succ == nil {
			if lf.tail.CompareAndSwap(cur, nil) {
				if cur != me {
					cur.tstate.Store(tsClean)
				}
				return
			}
			var s spinwait.Spinner
			for succ = cur.next.Load(); succ == nil; succ = cur.next.Load() {
				s.Pause()
			}
		}
		if cur != me {
			cur.tstate.Store(tsClean)
		}
		if l.grantLeaf(succ, statusAcqPar) {
			return
		}
		cur = succ
	}
}

// releaseRoot performs an MCS release of the root queue on behalf of
// the leaf's embedded node, skipping (and retiring) root nodes whose
// representatives abandoned their timed root wait.
func (l *HMCS) releaseRoot(lf *leaf) {
	rn := &lf.root
	cur := rn
	for {
		next := cur.next.Load()
		if next == nil {
			if l.rootTail.CompareAndSwap(cur, nil) {
				if cur != rn {
					cur.tstate.Store(tsClean)
				}
				return
			}
			var s spinwait.Spinner
			for next = cur.next.Load(); next == nil; next = cur.next.Load() {
				s.Pause()
			}
		}
		if cur != rn {
			cur.tstate.Store(tsClean)
		}
		if l.grantRoot(next) {
			return
		}
		cur = next
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
