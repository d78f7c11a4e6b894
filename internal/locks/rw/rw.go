// Package rw builds a NUMA-aware reader-writer lock out of any lock in
// the registry: the cohort-RW construction of the lineage the paper's
// related work draws on (Calciu et al.'s NUMA-aware RW locks; Dice &
// Kogan's cohort constructions), where a mutual-exclusion lock serves
// as the writer gate and readers are counted on per-socket "read
// indicator" stripes.
//
// # Construction
//
// A Lock wraps a locks.TimedMutex as its writer gate, so every
// registered algorithm — MCS, CNA, HMCS, a cohort lock — becomes an RW
// lock's writer arbiter without modification; writer-vs-writer
// contention inherits exactly the gate's NUMA behaviour. Readers never
// touch the gate. Each socket owns one cache-line-padded reader
// counter (the read indicator), so concurrent readers on different
// sockets never bounce a shared line between packages; a reader only
// ever increments and decrements its own socket's stripe.
//
// # Protocol
//
// A reader arrives by incrementing its socket's indicator and then
// checking for writer activity; a writer arrives by acquiring the gate,
// raising the writer-active flag, and then draining each indicator to
// zero. Both sides run seq-cst atomics, so at least one observes the
// other (the same Dekker-style argument as the waiter package's
// flag-and-recheck handshake): a reader that saw no writer is visible
// to the writer's drain scan, and a reader that races the flag retires
// its increment ("blips out") and waits. Blocked readers and the
// draining writer wait through the lock's waiter.Policy — per-thread
// padded waiter.State for readers, one for the writer — so the RW
// construction composes with spin, spin-then-park and park policies
// like every other lock here, and the timed acquires reuse the
// policies' WaitUntil machinery.
//
// # Anonymous read holds
//
// sync.RWMutex lets any goroutine release a read hold, and a goroutine
// has no Thread. RTryLockAnon admits a reader on a caller-chosen stripe
// without one, RAdopt turns a Thread's read hold into the same form (a
// reader that had to wait needed the Thread's park state), and
// RUnlockAnon releases one from any goroutine. Each stripe counts its
// anonymous holds in a held word beside its indicator, and a release
// decrements an indicator only after taking a hold off that stripe's
// held word, so decrements still pair with admitted increments stripe
// by stripe — the property the writer's drain relies on.
//
// # Modes
//
// Writer preference (the default): readers also defer while a writer is
// merely waiting at the gate, so a sustained reader flood cannot
// starve writers — the property the conformance suite's
// writer-admission storm pins. Reader-neutral mode (the Neutral
// option) lets readers flow until a writer actually holds the gate,
// which favours read throughput and admission latency at the cost of
// writer latency under flood.
package rw

import (
	"sync/atomic"
	"time"

	"repro/internal/locknames"
	"repro/internal/locks"
	"repro/internal/waiter"
)

// indicator is one per-socket reader counter, padded to a full cache
// line so neighbouring sockets' stripes never false-share (asserted by
// the size test, like core.Node's 64-byte assertion). held counts the
// anonymous read holds admitted on this stripe (see RTryLockAnon); it
// shares the line because every anonymous admission and release writes
// both words.
type indicator struct {
	n    atomic.Int64
	held atomic.Int64
	_    [6]uint64
}

// paddedState is a waiter.State padded to a full cache line: reader
// park states are indexed by thread ID in one slice, and a waker
// touching one thread's flag must not invalidate its neighbours'.
type paddedState struct {
	st waiter.State
	_  [5]uint64
}

// Option tunes a Lock at construction.
type Option func(*Lock)

// Neutral selects reader-neutral mode: readers defer only to a writer
// that holds the gate, not to writers waiting at it.
func Neutral() Option { return func(l *Lock) { l.neutral = true } }

// WriterPreference selects writer-preference mode (the default, so
// this option exists to spell an explicit choice): readers defer to
// waiting writers too.
func WriterPreference() Option { return func(l *Lock) { l.neutral = false } }

// Lock is the NUMA-aware reader-writer lock. Build one with New; the
// zero value is not usable. It implements locks.RWMutex; the writer
// methods (Lock/TryLock/LockTimeout/Unlock) carry the full TimedMutex
// contract of the wrapped gate.
type Lock struct {
	writer  locks.TimedMutex
	wait    waiter.Policy
	base    string // the gate's name at construction (its spin spelling)
	neutral bool

	ind        []indicator   // per-socket read indicators
	rstates    []paddedState // per-thread reader park states, by t.ID
	drainReady []func() bool // per-socket "indicator is zero", preallocated
	readReady  func() bool   // "!readBlocked()", preallocated

	_ [4]uint64 // keep the hot flags off the header fields' line

	// wactive is 1 from the moment a gate holder declares itself until
	// its Unlock; wwaiting counts writers waiting at the gate
	// (writer-preference readers defer while it is nonzero). They share
	// a line on purpose: the reader fast path loads both with one
	// read-shared line.
	wactive  atomic.Uint32
	wwaiting atomic.Int32

	_ [7]uint64 // slowReaders is written by contended readers; keep it
	// off the line the reader fast path reads wactive from.

	// slowReaders counts readers in the slow-path wait loop; the writer
	// release broadcast is skipped entirely while it is zero.
	slowReaders atomic.Int32

	_ [7]uint64

	// wstate is the draining writer's park state (only the single gate
	// holder drains, so one state suffices).
	wstate paddedState
}

// New wraps gate as the writer arbiter of a reader-writer lock for a
// machine with the given socket count and thread-ID bound. Values
// below 1 are raised to 1. The per-socket striping follows
// locks.Thread.Socket — the identity a numa.Placement assigns — so a
// reader's increment lands on the line its socket owns.
func New(gate locks.TimedMutex, sockets, maxThreads int, opts ...Option) *Lock {
	if sockets < 1 {
		sockets = 1
	}
	if maxThreads < 1 {
		maxThreads = 1
	}
	l := &Lock{
		writer:  gate,
		wait:    waiter.Default,
		base:    gate.Name(),
		ind:     make([]indicator, sockets),
		rstates: make([]paddedState, maxThreads),
	}
	l.drainReady = make([]func() bool, sockets)
	for i := range l.drainReady {
		n := &l.ind[i].n
		l.drainReady[i] = func() bool { return n.Load() == 0 }
	}
	l.readReady = func() bool { return !l.readBlocked() }
	for _, o := range opts {
		o(l)
	}
	return l
}

// stripe maps a thread to its read-indicator index. Thread sockets
// normally lie below the construction-time socket count; a thread from
// a wider topology wraps (striping quality degrades, correctness does
// not).
func (l *Lock) stripe(t *locks.Thread) int { return l.stripeOf(t.Socket) }

// stripeOf wraps any int into the read-indicator range.
func (l *Lock) stripeOf(s int) int {
	if uint(s) >= uint(len(l.ind)) {
		if s %= len(l.ind); s < 0 {
			s = 0
		}
	}
	return s
}

// readBlocked reports whether an arriving reader must wait: a writer
// is active, or — under writer preference — waiting at the gate.
func (l *Lock) readBlocked() bool {
	if l.wactive.Load() != 0 {
		return true
	}
	return !l.neutral && l.wwaiting.Load() > 0
}

// tryEnterRead attempts one reader admission on stripe s: increment,
// recheck, and on failure retire the increment ("blip out"). A blip
// that leaves the stripe at zero wakes the draining writer — the
// writer may have observed the transient increment and parked on it.
func (l *Lock) tryEnterRead(s int) bool {
	n := &l.ind[s].n
	n.Add(1)
	if !l.readBlocked() {
		return true
	}
	if n.Add(-1) == 0 && l.wactive.Load() != 0 {
		l.wait.Wake(&l.wstate.st)
	}
	return false
}

// RLock implements locks.RWMutex: the fast path is one increment on
// the caller's socket stripe plus one load of the shared writer-flag
// line; the slow path waits through the lock's policy and retries.
func (l *Lock) RLock(t *Thread) {
	t.AcquireSlot()
	s := l.stripe(t)
	if l.tryEnterRead(s) {
		return
	}
	st := &l.rstates[t.ID].st
	l.slowReaders.Add(1)
	for {
		l.wait.Prepare(st)
		l.wait.Wait(st, l.readReady)
		if l.tryEnterRead(s) {
			l.slowReaders.Add(-1)
			return
		}
	}
}

// RUnlock implements locks.RWMutex. It must run on the thread that
// RLocked: the decrement must land on the stripe the matching
// increment did, or a writer's stripe-by-stripe drain could observe a
// torn sum. A decrement that zeroes the stripe wakes the draining
// writer.
func (l *Lock) RUnlock(t *Thread) {
	t.ReleaseSlot()
	l.exitRead(l.stripe(t))
}

// exitRead retires one admitted increment on stripe s.
func (l *Lock) exitRead(s int) {
	if l.ind[s].n.Add(-1) == 0 && l.wactive.Load() != 0 {
		l.wait.Wake(&l.wstate.st)
	}
}

// RTryLockAnon makes one reader admission attempt on stripe hint
// (wrapped into range) with no Thread: no nesting slot, no park state.
// The hold it takes is anonymous — counted in the stripe's held word —
// and is released by RUnlockAnon from any goroutine.
func (l *Lock) RTryLockAnon(hint int) bool {
	s := l.stripeOf(hint)
	if !l.tryEnterRead(s) {
		return false
	}
	l.ind[s].held.Add(1)
	return true
}

// RAdopt turns t's read hold (from RLock, RTryLock or RLockTimeout)
// into an anonymous one: t's nesting slot is released, t may be reused
// at once, and the hold is released by RUnlockAnon.
func (l *Lock) RAdopt(t *Thread) {
	l.ind[l.stripe(t)].held.Add(1)
	t.ReleaseSlot()
}

// RUnlockAnon releases one anonymous read hold, trying stripe hint
// first and then the others in order. A stripe's indicator is
// decremented only after one of its anonymous holds has been taken off
// its held word, so every decrement pairs with an admitted increment on
// the same stripe: a blip's transient increment is never released as a
// hold, and no stripe goes negative under the writer's stripe-by-stripe
// drain. false means no anonymous hold was outstanding; no indicator
// was touched.
func (l *Lock) RUnlockAnon(hint int) bool {
	s := l.stripeOf(hint)
	for i := range l.ind {
		j := (s + i) % len(l.ind)
		held := &l.ind[j].held
		for h := held.Load(); h > 0; h = held.Load() {
			if held.CompareAndSwap(h, h-1) {
				l.exitRead(j)
				return true
			}
		}
	}
	return false
}

// RTryLock implements locks.RWMutex: one admission attempt, no
// waiting, no waiter-substrate writes (the waiter.TryPolicy contract —
// the blip-retire wake is a condition-change notification to an
// already-parked writer, not a wait of our own).
func (l *Lock) RTryLock(t *Thread) bool {
	t.AcquireSlot()
	if l.tryEnterRead(l.stripe(t)) {
		return true
	}
	t.ReleaseSlot()
	return false
}

// RLockTimeout implements locks.RWMutex: RLock bounded by d. On expiry
// it returns false with no trace — the blip protocol has already
// retired every transient increment, and the nesting slot is released.
func (l *Lock) RLockTimeout(t *Thread, d time.Duration) bool {
	if d <= 0 {
		return l.RTryLock(t)
	}
	t.AcquireSlot()
	s := l.stripe(t)
	if l.tryEnterRead(s) {
		return true
	}
	deadline := time.Now().Add(d)
	st := &l.rstates[t.ID].st
	l.slowReaders.Add(1)
	for {
		l.wait.Prepare(st)
		expired := !l.wait.WaitUntil(st, l.readReady, deadline)
		if l.tryEnterRead(s) { // grant at the buzzer still wins
			l.slowReaders.Add(-1)
			return true
		}
		if expired || !time.Now().Before(deadline) {
			l.slowReaders.Add(-1)
			t.ReleaseSlot()
			return false
		}
	}
}

// Lock implements locks.Mutex (the writer side): acquire the gate,
// declare writer activity, then drain every socket's read indicator to
// zero. Under writer preference the wwaiting increment blocks new
// readers for the whole gate wait.
func (l *Lock) Lock(t *Thread) {
	l.wwaiting.Add(1)
	l.writer.Lock(t)
	l.wactive.Store(1)
	l.wwaiting.Add(-1)
	l.drain()
}

// drain waits, stripe by stripe, for the read indicators to reach
// zero. Admitted readers only ever decrement once the writer flag is
// up, and arriving readers blip out, so each stripe is monotonically
// drained; per-stripe waiting is what lets RUnlock pair its decrement
// with the matching increment instead of a cross-stripe sum.
func (l *Lock) drain() {
	for i := range l.ind {
		if l.ind[i].n.Load() == 0 {
			continue
		}
		l.wait.Prepare(&l.wstate.st)
		l.wait.Wait(&l.wstate.st, l.drainReady[i])
	}
}

// drainUntil is drain bounded by a deadline; false means a stripe
// failed to empty in time.
func (l *Lock) drainUntil(deadline time.Time) bool {
	for i := range l.ind {
		if l.ind[i].n.Load() == 0 {
			continue
		}
		l.wait.Prepare(&l.wstate.st)
		if !l.wait.WaitUntil(&l.wstate.st, l.drainReady[i], deadline) {
			return false
		}
	}
	return true
}

// TryLock implements locks.Mutex: gate TryLock, then a single scan of
// the indicators — any live reader backs the attempt out. The back-out
// broadcasts to slow-path readers: one may have parked against the
// transient writer flag.
func (l *Lock) TryLock(t *Thread) bool {
	if !l.writer.TryLock(t) {
		return false
	}
	l.wactive.Store(1)
	for i := range l.ind {
		if l.ind[i].n.Load() != 0 {
			l.wactive.Store(0)
			l.writer.Unlock(t)
			l.wakeReaders()
			return false
		}
	}
	return true
}

// LockTimeout implements locks.TimedMutex: the gate wait and the
// reader drain share one deadline. Expiry at either stage leaves no
// trace: a failed gate acquire only retracts the waiting count, and a
// failed drain lowers the writer flag and releases the gate — in both
// cases deferred readers are woken.
func (l *Lock) LockTimeout(t *Thread, d time.Duration) bool {
	if d <= 0 {
		return l.TryLock(t)
	}
	deadline := time.Now().Add(d)
	l.wwaiting.Add(1)
	if !l.writer.LockTimeout(t, d) {
		l.wwaiting.Add(-1)
		l.wakeReaders()
		return false
	}
	l.wactive.Store(1)
	l.wwaiting.Add(-1)
	if l.drainUntil(deadline) {
		return true
	}
	l.wactive.Store(0)
	l.writer.Unlock(t)
	l.wakeReaders()
	return false
}

// Unlock implements locks.Mutex: lower the writer flag, release the
// gate, and wake deferred readers. The flag store precedes the
// broadcast, so a woken reader's recheck observes an admittable lock;
// a reader that enters its slow path after the broadcast's skip check
// observes the lowered flag on its pre-wait recheck instead (seq-cst,
// the usual store-then-check vs add-then-load pairing).
func (l *Lock) Unlock(t *Thread) {
	l.wactive.Store(0)
	l.writer.Unlock(t)
	l.wakeReaders()
}

// wakeReaders broadcasts to every reader park state. Skipped entirely
// while no reader is in the slow path; under the Spin policy each Wake
// is a no-op load.
func (l *Lock) wakeReaders() {
	if l.slowReaders.Load() == 0 {
		return
	}
	for i := range l.rstates {
		l.wait.Wake(&l.rstates[i].st)
	}
}

// Name implements locks.Mutex: the gate's construction-time name plus
// the RW suffix plus the waiting-policy suffix — "CNA-rw",
// "MCS-rw-park".
func (l *Lock) Name() string { return l.base + locknames.RWSuffix + l.wait.Suffix() }

// SetWait implements waiter.Setter: the policy governs blocked readers
// and the writer drain, and is forwarded to the gate so one WithWait
// configures the whole construction. Like every SetWait, it must run
// before the lock is shared.
func (l *Lock) SetWait(p waiter.Policy) {
	l.wait = p
	if ws, ok := l.writer.(waiter.Setter); ok {
		ws.SetWait(p)
	}
}

// EnableStats implements locks.StatsEnabler by forwarding to the gate
// (the RW layer keeps no statistics of its own).
func (l *Lock) EnableStats() {
	if se, ok := l.writer.(locks.StatsEnabler); ok {
		se.EnableStats()
	}
}

// ReaderCount returns the summed read indicators — the number of
// current read holds plus in-flight blips. Meaningful as a steady
// snapshot only (tests assert it returns to zero after storms).
func (l *Lock) ReaderCount() int64 {
	var total int64
	for i := range l.ind {
		total += l.ind[i].n.Load()
	}
	return total
}

// NeutralMode reports whether the lock runs reader-neutral (for tests;
// the default is writer preference).
func (l *Lock) NeutralMode() bool { return l.neutral }

// Thread aliases locks.Thread to keep the method signatures readable.
type Thread = locks.Thread

var (
	_ locks.RWMutex      = (*Lock)(nil)
	_ locks.TimedMutex   = (*Lock)(nil)
	_ waiter.Setter      = (*Lock)(nil)
	_ locks.StatsEnabler = (*Lock)(nil)
)
