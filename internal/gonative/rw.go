package gonative

// The reader-writer face of the adapter: NewRW("cna-rw") returns a
// locks.NativeRWMutex — the sync.RWMutex method shape — over any
// registered "-rw" lock, reusing the same padded thread-slot pool as
// the mutex adapter. The writer side works exactly like Mutex (claim a
// slot, run the inner protocol, remember the holder). The read side
// holds no identity at all, the way Mutex's fused fissile path holds
// none: many goroutines hold the lock together, and sync.RWMutex
// semantics let a different goroutine RUnlock a hold, so read holds are
// the inner lock's anonymous holds (rw.Lock.RTryLockAnon). RLock makes
// one admission attempt on the indicator stripe the goroutine's stack
// hint picks — no slot, no Thread — and only a reader that must wait
// for a writer borrows a slot to wait on its thread's node, adopting
// the hold into anonymous form and returning the slot before its
// critical section runs. RUnlock releases any one anonymous hold.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/locknames"
	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/locks/rw"
)

// RWMutex adapts a registered RW lock to the goroutine-native
// reader-writer contract. Build one with NewRW (or WrapRW); the zero
// value is not usable, and an RWMutex must not be copied after first
// use.
type RWMutex struct {
	noCopy noCopy
	inner  *rw.Lock
	pool   *Pool
	// holder is the writer-side claim, handed from Lock to Unlock
	// through the mutex itself (same contract as Mutex.holder).
	holder *locks.Thread
}

// Lock implements locks.NativeRWMutex: claim a thread slot, acquire
// the inner write lock on it.
func (m *RWMutex) Lock() {
	th := m.pool.claim()
	if th.Depth() != 0 {
		panic(fmt.Sprintf("gonative: pooled thread %d claimed at nesting depth %d", th.ID, th.Depth()))
	}
	m.inner.Lock(th)
	m.holder = th
}

// TryLock implements locks.NativeRWMutex: non-blocking at both levels.
func (m *RWMutex) TryLock() bool {
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

// LockTimeout implements locks.TimedNativeMutex; the slot claim and
// the inner acquisition share one deadline (see Mutex.LockTimeout).
func (m *RWMutex) LockTimeout(d time.Duration) bool {
	if d <= 0 {
		return m.TryLock()
	}
	deadline := time.Now().Add(d)
	th := m.pool.claimTimeout(deadline)
	if th == nil {
		return false
	}
	if !m.inner.LockTimeout(th, time.Until(deadline)) {
		m.pool.release(th)
		return false
	}
	m.holder = th
	return true
}

// LockContext implements locks.TimedNativeMutex.
func (m *RWMutex) LockContext(ctx context.Context) error {
	return locks.ContextLock(ctx, m)
}

// Unlock implements locks.NativeRWMutex: release the write hold on
// the claiming thread, then return the slot.
func (m *RWMutex) Unlock() {
	th := m.holder
	if th == nil {
		panic("gonative: Unlock of an un-write-locked " + m.inner.Name())
	}
	m.holder = nil
	m.inner.Unlock(th)
	m.pool.release(th)
}

// RLock implements locks.NativeRWMutex: one anonymous admission
// attempt; a reader turned away by a writer borrows a slot to wait on,
// adopts the hold it gets, and returns the slot.
func (m *RWMutex) RLock() {
	if m.inner.RTryLockAnon(int(hint())) {
		return
	}
	th := m.pool.claim()
	if th.Depth() != 0 {
		panic(fmt.Sprintf("gonative: pooled thread %d claimed at nesting depth %d", th.ID, th.Depth()))
	}
	m.inner.RLock(th)
	m.inner.RAdopt(th)
	m.pool.release(th)
}

// RUnlock implements locks.NativeRWMutex: release any one read hold
// (read holds are counted, not owned — sync.RWMutex semantics).
func (m *RWMutex) RUnlock() {
	if !m.inner.RUnlockAnon(int(hint())) {
		panic("gonative: RUnlock of an un-read-locked " + m.inner.Name())
	}
}

// TryRLock implements locks.NativeRWMutex: one anonymous admission
// attempt, so it never fails for lack of a slot.
func (m *RWMutex) TryRLock() bool {
	return m.inner.RTryLockAnon(int(hint()))
}

// RLockTimeout implements locks.NativeRWMutex: RLock whose slot claim
// and wait share one deadline.
func (m *RWMutex) RLockTimeout(d time.Duration) bool {
	if m.TryRLock() {
		return true
	}
	if d <= 0 {
		return false
	}
	deadline := time.Now().Add(d)
	th := m.pool.claimTimeout(deadline)
	if th == nil {
		return false
	}
	if th.Depth() != 0 {
		panic(fmt.Sprintf("gonative: pooled thread %d claimed at nesting depth %d", th.ID, th.Depth()))
	}
	ok := m.inner.RLockTimeout(th, time.Until(deadline))
	if ok {
		m.inner.RAdopt(th)
	}
	m.pool.release(th)
	return ok
}

// RLocker implements locks.NativeRWMutex: a sync.Locker over the read
// side, mirroring sync.RWMutex.RLocker.
func (m *RWMutex) RLocker() sync.Locker { return rlocker{m} }

type rlocker struct{ m *RWMutex }

func (r rlocker) Lock()   { r.m.RLock() }
func (r rlocker) Unlock() { r.m.RUnlock() }

// Name implements locks.NativeMutex: the inner lock's registry name.
func (m *RWMutex) Name() string { return m.inner.Name() }

// Inner exposes the adapted RW lock (see Mutex.Inner for the caveats).
func (m *RWMutex) Inner() *rw.Lock { return m.inner }

// PoolStats reports (free, capacity) of the adapter's slot pool.
func (m *RWMutex) PoolStats() (free, capacity int) {
	return m.pool.Free(), m.pool.Capacity()
}

// notRWError explains a non-RW spec handed to the RW builder, naming
// the registered "-rw" variant when one exists.
func notRWError(spec lockreg.Spec) error {
	if rwName := spec.Name + locknames.RWSuffix; !spec.RW {
		if _, ok := lockreg.Lookup(rwName); ok {
			return fmt.Errorf("gonative: %q has no read side (its reader-writer form is %q)", spec.Name, rwName)
		}
	}
	return fmt.Errorf("gonative: %q has no read side", spec.Name)
}

// NewRW builds the named registered lock in goroutine-native
// reader-writer form: the algorithm's own native build when the Spec
// has an RW one (std-rw), otherwise the Spec's RW lock wrapped in the
// slot-pool adapter. Non-RW names are an error that points at the
// registered "-rw" variant.
func NewRW(name string, env lockreg.Env, opts ...lockreg.Option) (locks.NativeRWMutex, error) {
	spec, ok := lockreg.Lookup(name)
	if !ok {
		return nil, lockreg.UnknownLockError(name)
	}
	return WrapRW(spec, env, opts...)
}

// MustNewRW is NewRW for statically known names; it panics on unknown
// or non-RW ones.
func MustNewRW(name string, env lockreg.Env, opts ...lockreg.Option) locks.NativeRWMutex {
	m, err := NewRW(name, env, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// WrapRW builds spec in goroutine-native RW form (see NewRW) with a
// private slot pool. Read holds take no slot; the pool bounds
// concurrent writers plus readers waiting for a writer, and those
// beyond its capacity wait for a slot, not for the lock.
func WrapRW(spec lockreg.Spec, env lockreg.Env, opts ...lockreg.Option) (locks.NativeRWMutex, error) {
	if spec.Native != nil {
		n := spec.Native(env, opts...)
		if rwn, ok := n.(locks.NativeRWMutex); ok {
			return rwn, nil
		}
		return nil, notRWError(spec)
	}
	if env.MaxThreads < 1 {
		env.MaxThreads = DefaultCapacity()
	}
	inner, ok := spec.Build(env, opts...).(*rw.Lock)
	if !ok {
		return nil, notRWError(spec)
	}
	return &RWMutex{inner: inner, pool: NewPool(env.MaxThreads, env.Topology)}, nil
}

// WrapRWWithPool builds spec's RW lock over an existing slot pool (the
// RW analogue of WrapWithPool; same capacity contract). Specs with a
// native RW build ignore the pool — they need no thread slots.
func WrapRWWithPool(spec lockreg.Spec, env lockreg.Env, pool *Pool, opts ...lockreg.Option) (locks.NativeRWMutex, error) {
	if spec.Native != nil {
		n := spec.Native(env, opts...)
		if rwn, ok := n.(locks.NativeRWMutex); ok {
			return rwn, nil
		}
		return nil, notRWError(spec)
	}
	if env.MaxThreads < pool.Capacity() {
		env.MaxThreads = pool.Capacity()
	}
	inner, ok := spec.Build(env, opts...).(*rw.Lock)
	if !ok {
		return nil, notRWError(spec)
	}
	return &RWMutex{inner: inner, pool: pool}, nil
}

var (
	_ locks.NativeRWMutex    = (*RWMutex)(nil)
	_ locks.TimedNativeMutex = (*RWMutex)(nil)
)
