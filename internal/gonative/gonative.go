// Package gonative makes every registered lock usable from plain Go
// code: New("cna") returns a locks.NativeMutex — a sync.Locker with
// TryLock — with no *locks.Thread in sight, so a CNA (or MCS, or
// cohort, ...) lock can replace a sync.Mutex field one line at a time.
//
// The explicit-thread API exists because queue locks need a stable
// identity: queue nodes of its own, a dense id, a NUMA socket, a
// nesting counter. Goroutines have none of that — they migrate freely
// between OS threads and expose no usable id — so the adapter supplies
// identity per acquisition instead of per worker:
// Lock claims a *locks.Thread from a pool of preallocated slots, runs
// the real lock's protocol on it, and remembers it in the (held)
// mutex; Unlock releases the inner lock on that thread and returns the
// slot. Compact Java Monitors (Dice & Kogan 2021) hides thread identity
// behind the lock the same way to make CNA a drop-in replacement for
// synchronized blocks.
//
// # The slot pool
//
// The pool is a fixed set of slots, each padded to whole cache lines
// and self-contained: its busy word, its Thread and that Thread's PRNG
// state (which CNA's keep-lock-local draw writes on every handover) sit
// on lines no other slot writes. Each slot's Thread has one queue node,
// on a line pair of its own. It is the only node the Thread needs:
// every acquisition through the adapter runs at nesting depth 0, so
// MCS, MCSCR, CNA, HMCS's leaves and the cohort MCS locals queue that
// node for whichever lock the slot is claimed for, and those locks hold
// no per-thread nodes of their own.
//
// A claim starts at the slot numbered by the P (the scheduler's
// processor) the goroutine runs on, modulo the pool's capacity, and
// CASes that slot's busy word from 0 to 1, probing linearly on
// failure. Goroutines that run at the same time are on different Ps,
// so with at least GOMAXPROCS slots they start at different slots, and
// a goroutine that runs on the same P again reclaims the slot whose
// lines that CPU already caches. A release is one store of 0 to the
// slot's own busy word. Claimants share no latch and no list head.
// Each slot's socket is fixed at construction from numa.Placement,
// which round-robins slots across the topology's sockets: slot k is on
// socket k mod sockets, the read-indicator stripe the RW adapter's
// anonymous holds take on P k. A P is not a socket; its id only keeps
// concurrent goroutines apart. The contended path allocates nothing.
//
// When every slot is claimed, Lock waits (bounded spin, then scheduler
// yields) for an Unlock to free one — the adapter never hands out more
// concurrent identities than the inner lock was built for, so queue
// nodes can never be corrupted by over-admission; the wait shows up as
// ordinary lock latency. TryLock instead fails cleanly when no slot is
// free, mirroring its never-blocks contract. Lock-nesting depth
// exhaustion cannot arise through the adapter at all: every
// acquisition claims a fresh slot at depth 0 (enforced with a clear
// panic rather than node corruption if the invariant is ever broken).
package gonative

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/locks/fissile"
	"repro/internal/numa"
	"repro/internal/prng"
	"repro/internal/spinwait"
)

// slot is one pool entry: the claim word, the Thread handed to the
// inner lock, and that Thread's PRNG state, padded so that the slot
// fills whole cache lines and no two slots' writes share one.
type slot struct {
	busy atomic.Uint32
	th   locks.Thread
	rng  prng.Xoroshiro
	_    [32]byte
}

// slotNode is a slot Thread's queue node, padded to a 128-byte pair of
// cache lines that nothing else shares: other threads write the node on
// every handover, and the adjacent-line prefetcher moves lines in pairs.
// It is allocated apart from its slot. On a 2-CPU Xeon VM, kv-hot
// requests spent about 200 ns more in the adapter with the node
// embedded in a 192- or 256-byte slot than with it here.
type slotNode struct {
	node [1]locks.Node
	_    [64]byte
}

// Pool is a fixed set of preallocated Thread slots shared by the
// acquisitions of one adapted lock (or of many, when adapters are built
// over one pool via WrapWithPool — a goroutine occupies at most one
// slot per acquisition regardless of which lock it is for). The slots
// are allocated one by one: a slot-sized object starts on a boundary of
// its own size, whereas the runtime prefixes a large array holding
// pointers with a header word that would skew every slot off its lines.
// The pointer array itself is written only at construction.
type Pool struct {
	slots []*slot
}

// NewPool preallocates capacity Thread slots, each on the socket
// numa.Placement spreads it to. Capacities below 1 are raised to 1.
func NewPool(capacity int, topo numa.Topology) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	place := numa.NewPlacement(topo.OrDefault(), capacity, numa.Spread)
	p := &Pool{slots: make([]*slot, capacity)}
	for i := range p.slots {
		sl := new(slot)
		sl.th.Init(i, place.SocketOf(i), &sl.rng, new(slotNode).node[:])
		p.slots[i] = sl
	}
	return p
}

// hint returns the id of the P the calling goroutine runs on, in
// [0, GOMAXPROCS). The goroutine may move to another P as soon as hint
// returns; only the hint quality depends on it staying — any value is
// correct. A variable so tests can pin it.
var hint = func() int {
	p := procPin()
	procUnpin()
	return p
}

// start maps a hint onto a slot index in [0, n).
func start(h, n int) int { return h % n }

// tryClaim claims a free Thread slot: one pass over the slots from the
// hinted one, nil when every slot is busy (the claim loops and TryLock
// both build on this; TryLock must not block, not even on slots). The
// load in front of the CAS keeps a probe past busy slots read-only.
func (p *Pool) tryClaim() *locks.Thread {
	n := len(p.slots)
	i := start(hint(), n)
	for range n {
		sl := p.slots[i]
		if sl.busy.Load() == 0 && sl.busy.CompareAndSwap(0, 1) {
			return &sl.th
		}
		if i++; i == n {
			i = 0
		}
	}
	return nil
}

// release returns a claimed Thread: one store to its slot's busy word.
func (p *Pool) release(th *locks.Thread) { p.slots[th.ID].busy.Store(0) }

// claim claims a free slot, waiting (bounded spin, then scheduler
// yields) for a release when every slot is busy.
func (p *Pool) claim() *locks.Thread {
	if th := p.tryClaim(); th != nil {
		return th
	}
	var w spinwait.Spinner
	for {
		w.Pause()
		if th := p.tryClaim(); th != nil {
			return th
		}
	}
}

// claimTimeout is claim with a deadline: nil when no release freed a
// slot in time. The clock probes are amortized as in locks.PollTimeout.
func (p *Pool) claimTimeout(deadline time.Time) *locks.Thread {
	if th := p.tryClaim(); th != nil {
		return th
	}
	var w spinwait.Spinner
	for n := 1; ; n++ {
		w.Pause()
		if th := p.tryClaim(); th != nil {
			return th
		}
		if (w.Yielding() || n%64 == 0) && !time.Now().Before(deadline) {
			return nil
		}
	}
}

// Capacity reports the number of preallocated slots.
func (p *Pool) Capacity() int { return len(p.slots) }

// Free counts currently free slots, for the leak checks in tests: after
// quiescence Free must equal Capacity.
func (p *Pool) Free() int {
	free := 0
	for _, sl := range p.slots {
		if sl.busy.Load() == 0 {
			free++
		}
	}
	return free
}

// noCopy makes `go vet`'s copylocks analysis flag any copy of the
// embedding struct (the same device sync.noCopy uses): a copied Mutex
// would alias the holder field and the inner lock's queue state.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Mutex adapts a registered lock to the goroutine-native contract. The
// zero value is not usable; build one with New (or Wrap). A Mutex must
// not be copied after first use (go vet's copylocks check enforces
// this via the embedded noCopy).
type Mutex struct {
	noCopy noCopy
	inner  locks.TimedMutex
	// fast is set iff the inner lock is a Fissile composite, as a
	// concrete pointer so the uncontended path is one predictable
	// branch plus an inlinable CAS — an interface dispatch here would
	// cost more than the CAS it guards. When set, Lock/TryLock try the
	// one-CAS fast path before touching the slot pool at all, Unlock is
	// a single RMW with no slot involved, and only the contended
	// fallback claims a Thread (returning it before the critical
	// section runs, since a Fissile critical section holds only the
	// outer word). This is what closes the adapter-overhead gap to
	// sync.Mutex: the common case allocates nothing and touches no
	// slot.
	fast *fissile.Lock
	pool *Pool
	// holder is the Thread the current acquisition claimed, handed from
	// Lock to Unlock through the mutex itself. It is a plain field: it
	// is written only after the inner lock is acquired and read only
	// before it is released, so accesses from successive critical
	// sections are ordered by the lock's own handover — and, as with
	// sync.Mutex, handing one critical section between goroutines
	// requires the caller's own synchronization.
	holder *locks.Thread
}

// Lock implements locks.NativeMutex (and sync.Locker): claim a thread
// slot, run the real acquisition on it. A Fissile inner lock claims
// the slot only on the contended fallback — and returns it before the
// critical section, because Fissile holds nothing but its outer word
// across the caller's critical section.
func (m *Mutex) Lock() {
	if f := m.fast; f != nil {
		if f.TryFast() {
			return
		}
		th := m.pool.claim()
		if th.Depth() != 0 {
			panic(fmt.Sprintf("gonative: pooled thread %d claimed at nesting depth %d", th.ID, th.Depth()))
		}
		f.LockSlow(th)
		m.pool.release(th)
		return
	}
	th := m.pool.claim()
	if th.Depth() != 0 {
		panic(fmt.Sprintf("gonative: pooled thread %d claimed at nesting depth %d", th.ID, th.Depth()))
	}
	m.inner.Lock(th)
	m.holder = th
}

// TryLock implements locks.NativeMutex: non-blocking at both levels —
// it fails cleanly when no thread slot is free, and otherwise runs the
// inner lock's TryLock, which never queues (and never touches waiter
// state; see the TryLock waiter-state tests in internal/locks).
func (m *Mutex) TryLock() bool {
	if f := m.fast; f != nil {
		// Pure fast path: a fissile TryLock is the outer-word CAS and
		// nothing else — no slot, no pool, so it cannot fail for lack
		// of a slot either.
		return f.TryFast()
	}
	th := m.pool.tryClaim()
	if th == nil {
		return false
	}
	if !m.inner.TryLock(th) {
		m.pool.release(th)
		return false
	}
	m.holder = th
	return true
}

// LockTimeout implements locks.TimedNativeMutex. The slot claim and
// the inner acquisition share one deadline: a slot-starved adapter
// spends part (possibly all) of the budget waiting for an Unlock to
// free a slot, so the bounded-wait contract holds even when the inner
// lock is never reached. A non-positive d degrades to TryLock.
func (m *Mutex) LockTimeout(d time.Duration) bool {
	if d <= 0 {
		return m.TryLock()
	}
	if f := m.fast; f != nil {
		if f.TryFast() {
			return true
		}
		deadline := time.Now().Add(d)
		th := m.pool.claimTimeout(deadline)
		if th == nil {
			return false
		}
		if th.Depth() != 0 {
			panic(fmt.Sprintf("gonative: pooled thread %d claimed at nesting depth %d", th.ID, th.Depth()))
		}
		ok := f.LockSlowTimeout(th, time.Until(deadline))
		m.pool.release(th)
		return ok
	}
	deadline := time.Now().Add(d)
	th := m.pool.claimTimeout(deadline)
	if th == nil {
		return false
	}
	if th.Depth() != 0 {
		panic(fmt.Sprintf("gonative: pooled thread %d claimed at nesting depth %d", th.ID, th.Depth()))
	}
	if !m.inner.LockTimeout(th, time.Until(deadline)) {
		m.pool.release(th)
		return false
	}
	m.holder = th
	return true
}

// LockContext acquires the mutex unless ctx is cancelled or its
// deadline passes first (see LockWithContext, which this forwards to).
func (m *Mutex) LockContext(ctx context.Context) error {
	return LockWithContext(ctx, m)
}

// LockWithContext drives any timed native mutex from a context: nil
// means the mutex is held; otherwise the context's error is returned
// and the mutex is untouched. The wait is chunked into millisecond
// timed acquires (locks.ContextLock), so cancellation — as opposed to
// deadline expiry — is observed with at most that lag.
func LockWithContext(ctx context.Context, m locks.TimedNativeMutex) error {
	return locks.ContextLock(ctx, m)
}

// Unlock implements locks.NativeMutex: release the inner lock on the
// claiming thread, then return the slot (in that order — the thread's
// queue node is in use until the release completes).
func (m *Mutex) Unlock() {
	if f := m.fast; f != nil {
		// Both fissile paths hold only the outer word here (the slow
		// path already returned its slot), so release is one RMW;
		// UnlockFast panics on an unlocked word.
		f.UnlockFast()
		return
	}
	th := m.holder
	if th == nil {
		panic("gonative: Unlock of an unlocked " + m.inner.Name())
	}
	m.holder = nil
	m.inner.Unlock(th)
	m.pool.release(th)
}

// Name implements locks.NativeMutex: the inner lock's registry name.
func (m *Mutex) Name() string { return m.inner.Name() }

// Inner exposes the adapted lock, e.g. to read CNA statistics after a
// WithStats build. The *Thread API must not be driven through it while
// the adapter is in use.
func (m *Mutex) Inner() locks.TimedMutex { return m.inner }

// PoolStats reports (free, capacity) of the adapter's slot pool.
func (m *Mutex) PoolStats() (free, capacity int) {
	return m.pool.Free(), m.pool.Capacity()
}

// DefaultCapacity is the slot-pool size New uses when the Env carries
// no thread bound: enough concurrent acquisitions to oversubscribe
// every processor severalfold before Lock ever waits for a slot.
func DefaultCapacity() int {
	c := 4 * runtime.GOMAXPROCS(0)
	if c < 8 {
		c = 8
	}
	return c
}

// New builds the named registered lock in goroutine-native form: the
// algorithm's own native build when the Spec has one (the stdlib
// baselines), otherwise the Spec's lock wrapped in the slot-pool
// adapter. A zero env.MaxThreads sizes the pool at DefaultCapacity —
// unlike the raw Build path, where it means one thread, the native
// adapter cannot know its caller count up front.
func New(name string, env lockreg.Env, opts ...lockreg.Option) (locks.TimedNativeMutex, error) {
	spec, ok := lockreg.Lookup(name)
	if !ok {
		return nil, lockreg.UnknownLockError(name)
	}
	return Wrap(spec, env, opts...), nil
}

// MustNew is New for statically known names; it panics on unknown ones.
func MustNew(name string, env lockreg.Env, opts ...lockreg.Option) locks.TimedNativeMutex {
	m, err := New(name, env, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// Wrap builds spec in goroutine-native form (see New) with a private
// slot pool.
func Wrap(spec lockreg.Spec, env lockreg.Env, opts ...lockreg.Option) locks.TimedNativeMutex {
	if spec.Native != nil {
		return spec.Native(env, opts...)
	}
	if env.MaxThreads < 1 {
		env.MaxThreads = DefaultCapacity()
	}
	return newMutex(spec.Build(env, opts...), NewPool(env.MaxThreads, env.Topology))
}

// newMutex assembles an adapter, devirtualizing a Fissile inner lock
// into the concrete fast-path field (see Mutex.fast).
func newMutex(inner locks.TimedMutex, pool *Pool) *Mutex {
	m := &Mutex{inner: inner, pool: pool}
	if f, ok := inner.(*fissile.Lock); ok {
		m.fast = f
	}
	return m
}

// WrapWithPool builds spec's lock over an existing slot pool, so many
// adapted locks share one set of thread identities and their queue
// nodes: an MCS, MCSCR or CNA lock built this way is its lock struct
// alone, and an HMCS or C-BO-MCS lock its lock struct and per-socket
// queues, whatever the pool's capacity. The env's MaxThreads is raised
// to the pool's capacity, so locks that keep per-thread state of their
// own (CLH) index every slot's thread.
func WrapWithPool(spec lockreg.Spec, env lockreg.Env, pool *Pool, opts ...lockreg.Option) *Mutex {
	if env.MaxThreads < pool.Capacity() {
		env.MaxThreads = pool.Capacity()
	}
	return newMutex(spec.Build(env, opts...), pool)
}

var _ locks.NativeMutex = (*Mutex)(nil)
var _ locks.TimedNativeMutex = (*Mutex)(nil)
