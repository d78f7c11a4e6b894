package locks

import (
	"sync/atomic"
	"time"

	"repro/internal/spinwait"
)

// TAS is the classic test-and-set spin lock: one word, global spinning,
// no fairness guarantees. It is the paper's strawman ("A test-and-set
// lock is one of the simplest spin locks") and the fast path of the Linux
// qspinlock.
type TAS struct {
	state atomic.Uint32
}

// NewTAS returns an unlocked test-and-set lock.
func NewTAS() *TAS { return &TAS{} }

// Lock acquires the lock by spinning on an atomic swap.
func (l *TAS) Lock(t *Thread) {
	var s spinwait.Spinner
	for l.state.Swap(1) != 0 {
		s.Pause()
	}
}

// TryLock implements Mutex: one read plus at most one swap, the CAS-only
// fast path every flat lock shares.
func (l *TAS) TryLock(t *Thread) bool {
	return l.state.Load() == 0 && l.state.Swap(1) == 0
}

// LockTimeout implements TimedMutex: a flat lock holds no queue
// position, so the timed acquire just stops retrying at the deadline.
func (l *TAS) LockTimeout(t *Thread, d time.Duration) bool {
	return PollTimeout(func() bool { return l.state.Load() == 0 && l.state.Swap(1) == 0 }, d)
}

// Unlock releases the lock.
func (l *TAS) Unlock(t *Thread) { l.state.Store(0) }

// Name implements Mutex.
func (l *TAS) Name() string { return "TAS" }

// TTAS is test-and-test-and-set: it spins on a plain read until the lock
// looks free before attempting the atomic swap, reducing coherence
// traffic relative to TAS while keeping its one-word footprint.
type TTAS struct {
	state atomic.Uint32
}

// NewTTAS returns an unlocked test-and-test-and-set lock.
func NewTTAS() *TTAS { return &TTAS{} }

// Lock acquires the lock.
func (l *TTAS) Lock(t *Thread) {
	var s spinwait.Spinner
	for {
		for l.state.Load() != 0 {
			s.Pause()
		}
		if l.state.Swap(1) == 0 {
			return
		}
	}
}

// TryLock implements Mutex.
func (l *TTAS) TryLock(t *Thread) bool {
	return l.state.Load() == 0 && l.state.Swap(1) == 0
}

// LockTimeout implements TimedMutex: give up by stopping the retry
// loop at the deadline.
func (l *TTAS) LockTimeout(t *Thread, d time.Duration) bool {
	return PollTimeout(func() bool { return l.state.Load() == 0 && l.state.Swap(1) == 0 }, d)
}

// Unlock releases the lock.
func (l *TTAS) Unlock(t *Thread) { l.state.Store(0) }

// Name implements Mutex.
func (l *TTAS) Name() string { return "TTAS" }

// BackoffTAS is a test-and-set lock with capped exponential backoff — the
// "BO" component of the paper's best-performing Cohort variant C-BO-MCS,
// where its tendency to re-admit the most recent releaser is exactly what
// keeps the lock on one socket (and what makes it unfair; cf. the paper's
// Figure 8 discussion).
type BackoffTAS struct {
	state    atomic.Uint32
	min, max uint
}

// NewBackoffTAS returns an unlocked backoff lock with backoff window
// [min, max] pause units.
func NewBackoffTAS(min, max uint) *BackoffTAS {
	return &BackoffTAS{min: min, max: max}
}

// Init resets l in place to an unlocked lock with backoff window
// [min, max] pause units, for a lock that holds its BackoffTAS by value
// (C-BO-MCS's global).
func (l *BackoffTAS) Init(min, max uint) { *l = BackoffTAS{min: min, max: max} }

// DefaultBackoffMin and DefaultBackoffMax are the backoff window used
// throughout the benchmarks (and by the lock registry's defaults).
const (
	DefaultBackoffMin uint = 4
	DefaultBackoffMax uint = 1024
)

// Lock acquires the lock.
func (l *BackoffTAS) Lock(t *Thread) {
	seed := uint64(t.ID + 1)
	if t.RNG != nil {
		seed = t.RNG.Next()
	}
	bo := spinwait.NewBackoff(l.min, l.max, seed)
	for {
		if l.state.Load() == 0 && l.state.Swap(1) == 0 {
			return
		}
		bo.Wait()
	}
}

// LockTimeout implements TimedMutex: the backoff loop with a deadline
// check per backoff interval (an interval is at most l.max pause
// units, so expiry is detected with bounded lag).
func (l *BackoffTAS) LockTimeout(t *Thread, d time.Duration) bool {
	if l.state.Load() == 0 && l.state.Swap(1) == 0 {
		return true
	}
	if d <= 0 {
		return false
	}
	deadline := time.Now().Add(d)
	seed := uint64(t.ID + 1)
	if t.RNG != nil {
		seed = t.RNG.Next()
	}
	bo := spinwait.NewBackoff(l.min, l.max, seed)
	for {
		if !time.Now().Before(deadline) {
			return l.state.Load() == 0 && l.state.Swap(1) == 0
		}
		bo.Wait()
		if l.state.Load() == 0 && l.state.Swap(1) == 0 {
			return true
		}
	}
}

// Unlock releases the lock.
func (l *BackoffTAS) Unlock(t *Thread) { l.state.Store(0) }

// Name implements Mutex.
func (l *BackoffTAS) Name() string { return "BO-TAS" }

// TryLock implements Mutex (also C-BO-MCS's global-lock path; the
// thread argument is unused — the lock is thread-oblivious).
func (l *BackoffTAS) TryLock(t *Thread) bool {
	return l.state.Load() == 0 && l.state.Swap(1) == 0
}
