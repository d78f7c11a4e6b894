// Package gcr is generic concurrency restriction: an admission gate in
// front of any lock, after "Avoiding Scalability Collapse by Restricting
// Concurrency" (Dice & Kogan 2019; see PAPERS.md). Where the Malthusian
// lock culls waiters *inside* one MCS queue, this composite works on any
// locks.TimedMutex — including the stdlib baseline — by deciding, before
// a thread is allowed to contend at all, whether it may.
//
// # Why
//
// Under deep oversubscription (threads ≫ cores) throughput collapses for
// reasons the lock algorithm cannot see: every circulating thread drags
// its private working set through the cache between acquisitions, and
// every surplus waiter burns scheduler quanta the holder needs. The cure
// is the same in the paper and here: keep a small *active set* of
// threads circulating over the lock and park everyone else for
// milliseconds at a time, long enough that the active threads' data
// stays cache-resident and the scheduler's run queue stays short.
//
// # Protocol
//
// The active set is a small array of slots, each owning one admitted
// *locks.Thread. Lock() by a slot owner passes straight through to the
// inner lock; a thread with no slot claims a free one, and failing that
// is culled: it pushes a node onto a lock-free LIFO passive list (a
// Treiber stack; every node is heap-allocated and pushed exactly once,
// so the push/detach pair is ABA-free) and parks through the
// waiter.Policy plumbing in bounded quanta.
//
// Membership is sticky — a slot is not released on Unlock, so the same
// few threads keep circulating while the passive set cools down — and
// three mechanisms bound how long anyone stays passive:
//
//   - Rotation: every RotateEvery departures, the releasing owner hands
//     its own slot to the oldest passive waiter and rejoins as a
//     commoner (its next acquisition is culled). Long-term fairness.
//   - Eviction: a slot whose stamp (the departure count at its owner's
//     last passage) lags the departure clock by staleDeparts is
//     reclaimed by the release path and granted to the oldest passive
//     waiter. This drains the passive list when owners stop coming back.
//   - Self-promotion: each time a passive waiter's park quantum expires
//     it competes for a housekeeping word; the winner claims a free or
//     stale slot if one exists, and — if two consecutive rounds observe
//     a completely idle gate (no departures, no stamp movement) — seizes
//     the stalest slot outright. This is the stranding backstop: parked
//     waiters stay live even if every active owner exits without
//     unlocking again.
//
// Grants transfer the granter's slot to the grantee before the wake, so
// admission is conserved; a grant and a cancellation race on the node's
// state word and exactly one wins. Timed culled waits cancel their node
// on expiry and return with no trace: the inner lock was never touched,
// no nesting slot was consumed, and the cancelled node is skipped and
// dropped by the next passive-list walk.
//
// TryLock bypasses the gate entirely and probes the inner lock:
// concurrency restriction bounds who may *wait*, and a TryLock never
// waits (see the TryLock waiter-state tests in internal/locks). A
// non-positive LockTimeout degrades to TryLock per the TimedMutex
// contract and inherits the bypass.
package gcr

import (
	"sync/atomic"
	"time"

	"repro/internal/locknames"
	"repro/internal/locks"
	"repro/internal/waiter"
)

// DefaultRotateEvery is how many departures pass between rotations (an
// active slot handed to the oldest passive waiter). Large enough that a
// freshly rotated-in thread's cold working set is amortized over
// thousands of warm acquisitions, small enough that at benchmark
// acquisition rates every passive waiter is admitted within tens of
// milliseconds.
const DefaultRotateEvery = 8192

// staleDeparts is how far a slot's stamp may lag the departure clock
// before the release path reclaims it. Healthy owners re-stamp on every
// passage, so their lag stays around the active-set size; a lag this
// deep means the owner stopped coming back.
const staleDeparts = 128

// Passive park quanta: a culled waiter parks in bounded slices so it can
// run the self-promotion housekeeping between parks. The base is spread
// per thread so 30 waiters do not wake on one edge.
const (
	parkQuantumBase   = 2 * time.Millisecond
	parkQuantumSpread = 250 * time.Microsecond
	parkQuantumSteps  = 8
)

// Node states: a culled waiter's node moves exactly once, to granted (by
// a granter transferring its slot) or to cancelled (by its own thread on
// expiry or self-promotion).
const (
	nodeWaiting uint32 = iota
	nodeGranted
	nodeCancelled
)

// Stats are the opt-in gate counters (see EnableStats). Unlike the
// holder-written statistics of the base locks these are atomic: gate
// events happen outside the inner critical section.
type Stats struct {
	// Admitted counts Lock/LockTimeout passages that went straight
	// through the gate (slot owner or fresh claim).
	Admitted uint64
	// Culled counts arrivals diverted onto the passive list.
	Culled uint64
	// Granted counts passive waiters admitted by a slot transfer
	// (rotation, eviction or the post-push recheck).
	Granted uint64
	// Rotations counts voluntary slot handoffs at rotation boundaries.
	Rotations uint64
	// Evictions counts stale slots reclaimed by the release path.
	Evictions uint64
	// Promotions counts passive waiters that admitted themselves through
	// the housekeeping path (free, stale or idle-seized slot).
	Promotions uint64
	// Expired counts culled timed waits that gave up with no trace.
	Expired uint64
}

// pnode is one culled waiter's passive-list entry. Nodes are
// heap-allocated per culled wait and pushed exactly once; after the
// state word leaves nodeWaiting the node is garbage (the collector,
// not a freelist, reclaims it — culled waits are millisecond-scale, so
// the allocation is noise).
type pnode struct {
	next  *pnode
	state atomic.Uint32
	wst   waiter.State
	t     *locks.Thread
}

// slot is one active-set seat: the owning thread and the departure-clock
// stamp of its last passage. Padded so slot CAS traffic (claims, steals,
// rotation) cannot false-share with a neighbour.
type slot struct {
	owner atomic.Pointer[locks.Thread]
	stamp atomic.Uint64
	_     [48]byte
}

// Lock is the concurrency-restriction composite. Build one with New;
// the zero value is not usable.
type Lock struct {
	inner locks.TimedMutex
	// wait is the passive-side policy (the inner lock keeps its own).
	wait        waiter.Policy
	slots       []slot
	rotateEvery uint64

	// departs is the departure clock: incremented per Unlock while the
	// passive list is non-empty. Doubles as the staleness reference.
	departs atomic.Uint64
	// top is the passive LIFO. Mutators either push one new node (CAS)
	// or detach the whole chain (Swap), so no pop can act on a stale
	// next pointer.
	top atomic.Pointer[pnode]
	// passive counts nodes in nodeWaiting state, maintained by the
	// push/grant/cancel transitions; the release fast path reads it.
	passive atomic.Int32
	// hk is the housekeeping word: one passive waiter at a time runs
	// the self-promotion scan.
	hk atomic.Uint32

	statsOn bool
	stats   struct {
		admitted, culled, granted             atomic.Uint64
		rotations, evictions, promos, expired atomic.Uint64
	}
}

// Option tunes one gate knob; see WithActiveSet and WithRotateEvery.
type Option func(*Lock)

// WithActiveSet sets the number of admission slots — the bound on
// threads circulating over the inner lock. Values below 1 are raised to
// 1 (a zero-width gate would admit nobody). The constructor default is
// sockets+1: the holder plus one waiter per socket, the paper's
// guidance for keeping the lock saturated without crowding it.
func WithActiveSet(n int) Option {
	return func(l *Lock) {
		if n < 1 {
			n = 1
		}
		l.slots = make([]slot, n)
	}
}

// WithRotateEvery sets how many departures pass between rotations.
// Values below 1 are raised to 1 (rotate on every departure — maximal
// fairness, the throughput of a FIFO handoff).
func WithRotateEvery(n int) Option {
	return func(l *Lock) {
		if n < 1 {
			n = 1
		}
		l.rotateEvery = uint64(n)
	}
}

// New wraps inner — any lock implementing the timed contract — in the
// admission gate. sockets sizes the default active set (sockets+1); the
// composite's Name is the inner name plus locknames.CRSuffix. The
// passive side parks with waiter.SpinThenPark by default; SetWait
// changes it (and forwards to the inner lock).
func New(inner locks.TimedMutex, sockets int, opts ...Option) *Lock {
	if sockets < 1 {
		sockets = 1
	}
	l := &Lock{
		inner:       inner,
		wait:        waiter.SpinThenPark{},
		slots:       make([]slot, sockets+1),
		rotateEvery: DefaultRotateEvery,
	}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Name implements locks.Mutex.
func (l *Lock) Name() string { return l.inner.Name() + locknames.CRSuffix }

// Inner exposes the wrapped lock, e.g. to read its handover or
// secondary-queue statistics after a WithStats build.
func (l *Lock) Inner() locks.TimedMutex { return l.inner }

// ActiveSet reports the admission-slot count (for tests and reports).
func (l *Lock) ActiveSet() int { return len(l.slots) }

// gate resolves t's admission in one slot scan: pass (owner or fresh
// claim, slot re-stamped) or cull. The scan is a handful of loads — the
// active set is sockets-sized by design.
func (l *Lock) gate(t *locks.Thread) bool {
	free := -1
	for i := range l.slots {
		switch l.slots[i].owner.Load() {
		case t:
			l.slots[i].stamp.Store(l.departs.Load())
			return true
		case nil:
			if free < 0 {
				free = i
			}
		}
	}
	if free >= 0 && l.slots[free].owner.CompareAndSwap(nil, t) {
		l.slots[free].stamp.Store(l.departs.Load())
		return true
	}
	return false
}

// claimFree claims any free slot for t, returning its index or -1.
func (l *Lock) claimFree(t *locks.Thread) int {
	for i := range l.slots {
		if l.slots[i].owner.Load() == nil && l.slots[i].owner.CompareAndSwap(nil, t) {
			l.slots[i].stamp.Store(l.departs.Load())
			return i
		}
	}
	return -1
}

// Lock implements locks.Mutex: the gate, then the inner lock.
func (l *Lock) Lock(t *locks.Thread) {
	if l.gate(t) {
		if l.statsOn {
			l.stats.admitted.Add(1)
		}
		l.inner.Lock(t)
		return
	}
	l.waitPassive(t, time.Time{})
	l.inner.Lock(t)
}

// TryLock implements locks.Mutex by probing the inner lock directly.
// The gate bounds who may wait, and a TryLock never waits — it holds no
// slot, joins no list, and leaves no trace either way.
func (l *Lock) TryLock(t *locks.Thread) bool { return l.inner.TryLock(t) }

// LockTimeout implements locks.TimedMutex. A non-positive d degrades to
// TryLock, per the interface contract.
func (l *Lock) LockTimeout(t *locks.Thread, d time.Duration) bool {
	if d <= 0 {
		return l.inner.TryLock(t)
	}
	deadline := time.Now().Add(d)
	if l.gate(t) {
		if l.statsOn {
			l.stats.admitted.Add(1)
		}
		return l.inner.LockTimeout(t, d)
	}
	if !l.waitPassive(t, deadline) {
		return false
	}
	// Admitted; whatever budget the passive wait left goes to the inner
	// lock (non-positive degrades to its TryLock).
	return l.inner.LockTimeout(t, time.Until(deadline))
}

// waitPassive is the culled path: push a node onto the passive list and
// park in quanta until granted (true), self-promoted (true) or — when
// deadline is non-zero — expired (false, no trace). The zero deadline
// means wait forever.
func (l *Lock) waitPassive(t *locks.Thread, deadline time.Time) bool {
	if l.statsOn {
		l.stats.culled.Add(1)
	}
	n := &pnode{t: t}
	l.wait.Prepare(&n.wst)
	l.passive.Add(1)
	for {
		old := l.top.Load()
		n.next = old
		if l.top.CompareAndSwap(old, n) {
			break
		}
	}
	// Recheck after publishing: the last owner may have vacated between
	// our scan and our push, leaving nobody to grant us.
	if i := l.claimFree(t); i >= 0 {
		if n.state.CompareAndSwap(nodeWaiting, nodeCancelled) {
			l.passive.Add(-1)
			return true
		}
		// A granter raced us and transferred its slot; give the claimed
		// one back (it stays free for the next arrival or grant).
		l.slots[i].owner.CompareAndSwap(t, nil)
		return true
	}

	ready := func() bool { return n.state.Load() == nodeGranted }
	quantum := parkQuantumBase +
		time.Duration(t.ID%parkQuantumSteps)*parkQuantumSpread
	var idle gateObservation
	for {
		until := time.Now().Add(quantum)
		expiring := false
		if !deadline.IsZero() && deadline.Before(until) {
			until = deadline
			expiring = true
		}
		if l.wait.WaitUntil(&n.wst, ready, until) {
			return true
		}
		if expiring {
			if n.state.CompareAndSwap(nodeWaiting, nodeCancelled) {
				l.passive.Add(-1)
				if l.statsOn {
					l.stats.expired.Add(1)
				}
				return false
			}
			return true // granted at the buzzer
		}
		if l.promote(t, n, &idle) {
			return true
		}
	}
}

// gateObservation is one passive waiter's memory of the gate across
// housekeeping rounds, for the idle-stranding detection.
type gateObservation struct {
	departs uint64
	stamps  [16]uint64
	rounds  int
}

// promote is the housekeeping a passive waiter runs when a park quantum
// expires: claim a free slot, reclaim a stale one, or — after two
// consecutive rounds of total idleness — seize the stalest one. The hk
// word elects one housekeeper at a time; losers just re-park. Returns
// true when the waiter admitted itself (its node is cancelled, or was
// granted in the race — either way it holds admission).
func (l *Lock) promote(t *locks.Thread, n *pnode, obs *gateObservation) bool {
	if !l.hk.CompareAndSwap(0, 1) {
		return false
	}
	si := l.claimFree(t)
	if si < 0 {
		si = l.claimStale(t, obs)
	}
	l.hk.Store(0)
	if si < 0 {
		return false
	}
	if l.statsOn {
		l.stats.promos.Add(1)
	}
	if n.state.CompareAndSwap(nodeWaiting, nodeCancelled) {
		l.passive.Add(-1)
		return true
	}
	// Granted concurrently: we hold two slots. Release the one we just
	// took by index; the granter's transfer stands.
	l.slots[si].owner.CompareAndSwap(t, nil)
	return true
}

// claimStale implements the eviction half of promote: steal a slot
// whose stamp lags the departure clock by staleDeparts, or — when two
// consecutive observations show no movement at all (an idle gate with
// parked waiters is a stranded gate) — the slot with the oldest stamp.
func (l *Lock) claimStale(t *locks.Thread, obs *gateObservation) int {
	d := l.departs.Load()
	idle := obs.rounds > 0 && d == obs.departs
	best, bestStamp := -1, ^uint64(0)
	for i := range l.slots {
		st := l.slots[i].stamp.Load()
		if i < len(obs.stamps) && st != obs.stamps[i] {
			idle = false
		}
		if i < len(obs.stamps) {
			obs.stamps[i] = st
		}
		if st < bestStamp {
			best, bestStamp = i, st
		}
	}
	obs.departs = d
	obs.rounds++
	steal := -1
	if idle && obs.rounds > 1 {
		steal = best
	} else if best >= 0 && d-bestStamp >= staleDeparts {
		steal = best
	}
	if steal < 0 {
		return -1
	}
	owner := l.slots[steal].owner.Load()
	if owner == nil || owner == t {
		return -1
	}
	if !l.slots[steal].owner.CompareAndSwap(owner, t) {
		return -1
	}
	l.slots[steal].stamp.Store(d)
	return steal
}

// Unlock implements locks.Mutex: release the inner lock, then run the
// gate's departure work — nothing at all while the passive list is
// empty, otherwise the rotation/eviction bookkeeping.
func (l *Lock) Unlock(t *locks.Thread) {
	l.inner.Unlock(t)
	if l.passive.Load() == 0 {
		return
	}
	d := l.departs.Add(1)
	if d%l.rotateEvery == 0 && l.rotate(t) {
		return
	}
	l.evictStale(t, d)
}

// rotate hands t's own slot to the oldest passive waiter; t's next
// acquisition will be culled. False when t owns no slot or no waiter
// could be granted (the slot is kept either way unless a grant landed).
func (l *Lock) rotate(t *locks.Thread) bool {
	for i := range l.slots {
		if l.slots[i].owner.Load() == t {
			if l.grantSlot(i, t) {
				if l.statsOn {
					l.stats.rotations.Add(1)
				}
				return true
			}
			return false
		}
	}
	return false
}

// evictStale reclaims slots whose owners stopped coming back and grants
// them to passive waiters. One slot per departure is enough — the next
// departure continues — and keeps the release path short.
func (l *Lock) evictStale(t *locks.Thread, d uint64) {
	for i := range l.slots {
		owner := l.slots[i].owner.Load()
		if owner == nil || owner == t {
			continue
		}
		if d-l.slots[i].stamp.Load() < staleDeparts {
			continue
		}
		if l.slots[i].owner.CompareAndSwap(owner, nil) {
			if l.statsOn {
				l.stats.evictions.Add(1)
			}
			l.grantSlot(i, nil)
		}
		return
	}
}

// grantSlot transfers slot si to the oldest waiting passive node: the
// whole chain is detached (always a full Swap, never a single-node pop,
// so no stale next pointer can be CASed in), walked from the oldest
// end, and the survivors are re-pushed in order.
// prev is the expected current owner (nil for an evicted slot). Returns
// true when a waiter was granted.
func (l *Lock) grantSlot(si int, prev *locks.Thread) bool {
	chain := l.top.Swap(nil)
	if chain == nil {
		return false
	}
	var nodes []*pnode
	for p := chain; p != nil; p = p.next {
		nodes = append(nodes, p)
	}
	granted := -1
	for i := len(nodes) - 1; i >= 0; i-- { // oldest first
		n := nodes[i]
		if n.state.Load() != nodeWaiting {
			continue
		}
		if n.state.CompareAndSwap(nodeWaiting, nodeGranted) {
			// Install the grantee before the wake so it resumes as an
			// owner. A raced steal of this slot only costs the grantee
			// its seat, never its grant.
			l.slots[si].owner.CompareAndSwap(prev, n.t)
			l.slots[si].stamp.Store(l.departs.Load())
			l.passive.Add(-1)
			if l.statsOn {
				l.stats.granted.Add(1)
			}
			l.wait.Wake(&n.wst)
			granted = i
			break
		}
	}
	// Re-push the still-waiting survivors, preserving LIFO order;
	// cancelled nodes and the grantee are dropped here, which is what
	// reclaims expired timed waiters' nodes.
	var head, tail *pnode
	for _, n := range nodes {
		if n.state.Load() != nodeWaiting {
			continue
		}
		if head == nil {
			head, tail = n, n
		} else {
			tail.next = n
			tail = n
		}
	}
	if head != nil {
		for {
			cur := l.top.Load()
			tail.next = cur
			if l.top.CompareAndSwap(cur, head) {
				break
			}
		}
	}
	return granted >= 0
}

// SetWait implements waiter.Setter: the policy parks the passive list
// (SpinThenPark by default) and is forwarded to the inner lock so one
// WithWait configures both layers.
func (l *Lock) SetWait(p waiter.Policy) {
	l.wait = p
	if ws, ok := l.inner.(waiter.Setter); ok {
		ws.SetWait(p)
	}
}

// EnableStats implements locks.StatsEnabler: it switches on the gate
// counters and forwards to the inner lock.
func (l *Lock) EnableStats() {
	l.statsOn = true
	if se, ok := l.inner.(locks.StatsEnabler); ok {
		se.EnableStats()
	}
}

// Stats returns a snapshot of the gate counters (all zero unless
// EnableStats was called).
func (l *Lock) Stats() Stats {
	return Stats{
		Admitted:   l.stats.admitted.Load(),
		Culled:     l.stats.culled.Load(),
		Granted:    l.stats.granted.Load(),
		Rotations:  l.stats.rotations.Load(),
		Evictions:  l.stats.evictions.Load(),
		Promotions: l.stats.promos.Load(),
		Expired:    l.stats.expired.Load(),
	}
}

// Passive reports the current passive-list population (a snapshot, for
// tests and reports).
func (l *Lock) Passive() int { return int(l.passive.Load()) }

var (
	_ locks.Mutex        = (*Lock)(nil)
	_ locks.TimedMutex   = (*Lock)(nil)
	_ locks.StatsEnabler = (*Lock)(nil)
	_ waiter.Setter      = (*Lock)(nil)
)
