// Package waiter is the pluggable waiting substrate of every user-space
// queue lock in this repository: the policy that decides what a waiter
// does between enqueueing and receiving the lock.
//
// The CNA paper targets the kernel, where waiters always spin. A
// user-space deployment with more threads than cores cannot afford that:
// spinning waiters steal the scheduler quanta the lock holder needs to
// finish its critical section, and throughput collapses (the paper
// itself stops at 70 threads on 72 CPUs for this reason; Dice & Kogan's
// later Compact Java Monitors work composes CNA with parked waiters).
// This package makes the waiting behaviour a per-lock Policy with three
// implementations:
//
//   - Spin — the three-phase adaptive busy-waiter (formerly inlined into
//     every lock's hot loop via spinwait.Spinner): a short busy burst,
//     exponentially lengthening bursts, then a scheduler yield per call.
//     Best when threads ≤ cores and the handover is nanoseconds away.
//   - SpinThenPark — the same bounded busy budget, then the waiter
//     blocks on a per-node binary semaphore until its predecessor wakes
//     it. This is the production policy for oversubscribed hosts: a
//     parked waiter consumes no scheduler quanta at all.
//   - Park — block almost immediately (one spin-free recheck), the
//     oversubscribed extreme; useful to isolate pure handover cost from
//     spin tuning in benchmarks.
//
// # Protocol
//
// Per-waiter park state lives in a State embedded in the lock's
// cache-line-padded queue node, so the uncontended fast paths never
// touch it. The wait/wake handshake is the classic flag-and-recheck
// dance that makes a lost wakeup impossible:
//
//	waiter                         waker (lock holder releasing)
//	------                         -----------------------------
//	flag.Store(1)                  <publish grant>   // node's spin word
//	if ready() { flag=0; return }  if flag.Load()==1 { post(sema) }
//	<-sema                         // post is non-blocking: sema is a
//	flag.Store(0)                  // 1-buffered binary semaphore
//
// Both sides run seq-cst atomics, so at least one of them observes the
// other: either the waker sees flag==1 and posts (the receive returns),
// or the waiter's recheck sees the grant and never blocks. A token
// posted after the waiter already left (both happened) survives in the
// buffered channel; the next round consumes it as a spurious wakeup,
// rechecks, and parks again — waits are loops, exactly like futexes.
// TestLostWakeupRegression pins the "wake posted before Wait parks"
// interleaving.
//
// # Liveness
//
// Every busy phase is bounded and every policy eventually either yields
// or blocks, so any lock built on this package stays live at
// GOMAXPROCS=1 (pinned by the registry's liveness conformance test).
package waiter

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/locknames"
	"repro/internal/spinwait"
)

// State is the per-waiter park state, embedded in a queue-lock node.
// The zero value is ready to use; the semaphore channel is allocated
// lazily on the first park, so locks that never park (the Spin policy,
// or uncontended use) pay only the struct space. It is 24 bytes (three
// 4-byte atomics, 4 bytes alignment padding, one channel word) so the
// host node can absorb it into its existing cache-line padding.
type State struct {
	// flag is 1 while the waiter intends to (or does) sleep on sema.
	// The waker reads it after publishing the grant; the waiter rechecks
	// the grant after setting it (see the package comment's handshake).
	flag atomic.Uint32
	// parks counts actual blocking waits (tests read it cross-thread to
	// assert that passivated waiters stop consuming CPU).
	parks atomic.Uint32
	// streak drives SpinThenPark's adaptivity: the number of consecutive
	// waits on this node that ended in a park (saturating into the
	// park-first re-probe window). Owned by the node's current waiter;
	// atomic because node ownership can rotate between goroutines (CLH)
	// and tests sample it.
	streak atomic.Uint32
	// sema is a 1-buffered binary semaphore. Written once (lazily) by
	// the waiter before the first flag.Store(1); the waker's flag.Load
	// orders the read after that write.
	sema chan struct{}
}

// Parked reports whether the owner is committed to (or inside) a
// blocking wait. Meaningful as a snapshot only; tests use it.
func (st *State) Parked() bool { return st.flag.Load() != 0 }

// Parks returns the number of times the owner actually blocked.
func (st *State) Parks() uint32 { return st.parks.Load() }

// drain removes a stale semaphore token left by a wake that raced a
// non-blocking exit from a previous round.
func (st *State) drain() {
	select {
	case <-st.sema:
	default:
	}
}

// block is the parking slow path shared by SpinThenPark and Park: the
// flag-and-recheck handshake of the package comment, looped because
// stale tokens from earlier rounds surface as spurious wakeups.
func (st *State) block(ready func() bool) {
	if st.sema == nil {
		// Lazily allocate the semaphore. The waker only dereferences it
		// after observing flag==1, which the atomic store below
		// publishes, so a plain write is sufficient (and race-free).
		st.sema = make(chan struct{}, 1)
	}
	for !ready() {
		st.flag.Store(1)
		if ready() {
			// The grant landed between the loop check and the flag
			// store; the waker may or may not have seen our flag. Leave
			// no parked intent behind and eat any token it posted.
			st.flag.Store(0)
			st.drain()
			return
		}
		st.parks.Add(1)
		<-st.sema
		st.flag.Store(0)
	}
}

// blockUntil is the deadline-bounded form of block: the same
// flag-and-recheck handshake, with a timer racing the semaphore. It
// returns true when ready() held (possibly granted at the buzzer) and
// false on expiry. On either exit the flag is cleared and any raced
// token drained, so the State carries no parked intent into its next
// use — the property the timeout-path reset test pins (a stale flag or
// token on a reused node would fire a spurious instant wake).
func (st *State) blockUntil(ready func() bool, deadline time.Time) bool {
	if st.sema == nil {
		st.sema = make(chan struct{}, 1)
	}
	var timer *time.Timer
	for !ready() {
		st.flag.Store(1)
		if ready() {
			st.flag.Store(0)
			st.drain()
			return true
		}
		d := time.Until(deadline)
		if d <= 0 {
			st.flag.Store(0)
			st.drain()
			return false
		}
		if timer == nil {
			timer = time.NewTimer(d)
		} else {
			timer.Reset(d)
		}
		st.parks.Add(1)
		select {
		case <-st.sema:
			st.flag.Store(0)
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
			// Timed out while parked. The waker may concurrently observe
			// flag==1 and post a token; clear the flag and drain so the
			// token cannot leak into a later round, then loop: the
			// re-check either sees a grant that landed at the buzzer
			// (return true) or the next deadline check returns false.
			st.flag.Store(0)
			st.drain()
		}
	}
	return true
}

// wake is the waker side of the handshake. It must be called after the
// grant has been published (the node's spin word stored); a no-op when
// the waiter never declared parking intent, so spin-policy and
// still-spinning waiters cost the waker one load of a line it already
// owns (the flag shares the node it just wrote the grant into).
func wake(st *State) {
	if st.flag.Load() != 0 {
		select {
		case st.sema <- struct{}{}:
		default: // token already present: the waiter is released either way
		}
	}
}

// prepare clears residue from earlier rounds — a stale token (posted by
// a waker whose waiter had already left) and, defensively, the flag.
// Correctness does not depend on it (tokens are only ever posted after
// the grant is visible, so a consumed stale token re-parks after a
// recheck); it keeps a reused node from paying one spurious wakeup.
func prepare(st *State) {
	if st.sema != nil {
		st.flag.Store(0)
		st.drain()
	}
}

// Policy decides how a queue-lock waiter passes the time. A lock holds
// exactly one Policy and threads it through every wait/handover site;
// implementations are stateless values, so a Policy may be shared by any
// number of locks. All per-waiter state lives in the node's State.
type Policy interface {
	// Name identifies the policy in reports ("spin", "spin-park", "park").
	Name() string
	// Suffix is appended to a lock's Name() when the policy is not the
	// default ("" for Spin) — registry names like "MCS-park" come from
	// here, so CLI spellings and Name() strings cannot drift.
	Suffix() string
	// Prepare readies a (possibly reused) node's State before the node
	// is published to a predecessor. Call it on the contended enqueue
	// path only — the uncontended fast path must not touch the State.
	Prepare(st *State)
	// Wait blocks until ready() reports true. ready must be a pure read
	// of the node's grant word; Wait may call it spuriously.
	Wait(st *State, ready func() bool)
	// WaitUntil is Wait with a deadline: it returns true when ready()
	// held (including a grant that lands exactly at the buzzer) and
	// false once the deadline passed with ready() still false. A false
	// return leaves the State clean — flag cleared, no pending token —
	// so the node can be reused (after the lock-level abandonment
	// protocol retires it). Like Wait, ready may be called spuriously.
	WaitUntil(st *State, ready func() bool, deadline time.Time) bool
	// WaitGlobal waits on a global-spin lock (ticket family) that has no
	// per-waiter wake channel: dist returns how many holders stand
	// between the caller and the lock, 0 meaning the lock is granted.
	// Spin turns the distance into proportional backoff; parking
	// policies cannot park (nobody would wake them) and degrade to
	// yield-per-recheck once the busy budget is spent.
	WaitGlobal(dist func() uint32)
	// Wake marks st's owner runnable. Call it after publishing the
	// grant the owner's ready() reads; a no-op unless the owner is
	// parked (one load of a line the waker just wrote).
	Wake(st *State)
}

// Default is the policy every lock constructor starts with: pure
// spinning, the paper's (and the kernel's) behaviour.
var Default Policy = Spin{}

// proportionalCap bounds how many pause units WaitGlobal burns between
// renewed distance reads: far-away tickets must not commit to stale
// distances for too long (the queue may drain faster than estimated).
const proportionalCap = 64

// Spin is the all-busy policy: the three-phase adaptive waiter that
// previously lived inline in every lock's spin loop. Wake is a no-op.
type Spin struct{}

// Name implements Policy.
func (Spin) Name() string { return "spin" }

// Suffix implements Policy: Spin is the default and adds nothing.
func (Spin) Suffix() string { return "" }

// Prepare implements Policy (no park state to reset).
func (Spin) Prepare(st *State) {}

// Wait implements Policy: the classic adaptive spin loop.
func (Spin) Wait(st *State, ready func() bool) {
	var s spinwait.Spinner
	for !ready() {
		s.Pause()
	}
}

// WaitUntil implements Policy: the adaptive spin loop with a periodic
// deadline check. time.Now is only consulted every deadlineProbe pauses
// during the busy phases (a clock read per pause would dominate the
// spin), and on every pause once the spinner is down to yields.
func (Spin) WaitUntil(st *State, ready func() bool, deadline time.Time) bool {
	var s spinwait.Spinner
	n := 0
	for !ready() {
		n++
		if s.Yielding() || n%deadlineProbe == 0 {
			if !time.Now().Before(deadline) {
				return ready() // grant at the buzzer still wins
			}
		}
		s.Pause()
	}
	return true
}

// deadlineProbe is how many busy pauses Spin.WaitUntil burns between
// clock reads; the deadline is therefore honored with one-probe-window
// granularity, which is far below any serving-path deadline.
const deadlineProbe = 64

// WaitGlobal implements Policy: proportional backoff — burn pause units
// proportional to the queue distance between rechecks, so far-away
// ticket holders neither hammer the grant line nor oversleep.
func (Spin) WaitGlobal(dist func() uint32) {
	var s spinwait.Spinner
	for {
		d := dist()
		if d == 0 {
			return
		}
		if s.Yielding() {
			// Busy budget spent: one yield per recheck regardless of
			// distance (d yields would just thrash the scheduler).
			s.Pause()
			continue
		}
		if d > proportionalCap {
			d = proportionalCap
		}
		for ; d > 0; d-- {
			s.Pause()
		}
	}
}

// Wake implements Policy: spinning waiters need no wakeup.
func (Spin) Wake(st *State) {}

// SpinThenPark's adaptive schedule: after parkFirstAfter consecutive
// waits that ended in a park, the spin phase is provably not paying for
// itself (the handover latency exceeds the whole budget every time), so
// subsequent waits park immediately — on a saturated host every cycle a
// not-yet-parked waiter burns comes straight out of the lock holder's
// quantum. Every spinReprobe park-first waits, one wait runs the full
// spin phase again so the policy can migrate back when the load drops.
const (
	parkFirstAfter = 2
	spinReprobe    = 64
)

// SpinThenPark spins through the bounded adaptive busy budget, then
// blocks on the node's semaphore until the predecessor wakes it. It
// parks straight after the busy budget, with no scheduler yields in
// between: measurement showed that yields before the park are the worst
// of both regimes (the waiter keeps taking scheduler turns like a
// spinner AND pays the wake latency of a parker). The schedule is
// adaptive per waiter (see parkFirstAfter): waits that keep ending in a
// park stop paying for the spin phase at all.
type SpinThenPark struct{}

// Name implements Policy.
func (SpinThenPark) Name() string { return "spin-park" }

// Suffix implements Policy: "MCS" + "-park" = the registered "MCS-park".
func (SpinThenPark) Suffix() string { return locknames.ParkSuffix }

// Prepare implements Policy.
func (SpinThenPark) Prepare(st *State) { prepare(st) }

// Wait implements Policy: bounded spin, then park — with the spin phase
// skipped entirely while recent waits on this node all ended parked.
func (SpinThenPark) Wait(st *State, ready func() bool) {
	streak := st.streak.Load()
	if streak >= parkFirstAfter {
		if streak < parkFirstAfter+spinReprobe {
			// Park-first regime: spinning lost parkFirstAfter times in a
			// row; go straight to the semaphore.
			st.streak.Store(streak + 1)
			if !ready() {
				st.block(ready)
			}
			return
		}
		streak = 0 // re-probe: run one full spin phase
	}
	var s spinwait.Spinner
	for !s.Yielding() {
		if ready() {
			st.streak.Store(0)
			return
		}
		s.Pause()
	}
	st.streak.Store(streak + 1)
	st.block(ready)
}

// WaitUntil implements Policy: the bounded busy budget (skipping the
// streak adaptivity — a timed wait is already a statement about how
// long the caller will tolerate waiting), then the timed park.
func (p SpinThenPark) WaitUntil(st *State, ready func() bool, deadline time.Time) bool {
	var s spinwait.Spinner
	n := 0
	for !s.Yielding() {
		if ready() {
			return true
		}
		n++
		if n%deadlineProbe == 0 && !time.Now().Before(deadline) {
			return ready()
		}
		s.Pause()
	}
	return st.blockUntil(ready, deadline)
}

// WaitGlobal implements Policy: same bounded budget, but with no wake
// channel the tail is yield-per-recheck instead of a park.
func (p SpinThenPark) WaitGlobal(dist func() uint32) {
	var s spinwait.Spinner
	for dist() != 0 {
		s.Pause()
	}
}

// Wake implements Policy.
func (SpinThenPark) Wake(st *State) { wake(st) }

// Park blocks almost immediately: one recheck, then the semaphore. The
// oversubscribed extreme of the policy spectrum.
type Park struct{}

// Name implements Policy.
func (Park) Name() string { return "park" }

// Suffix implements Policy. Distinct from SpinThenPark's "-park" so the
// two can never collide in registry names ("-park" variants are the
// registered ones; "-block" only appears via an explicit WithWait).
func (Park) Suffix() string { return locknames.BlockSuffix }

// Prepare implements Policy.
func (Park) Prepare(st *State) { prepare(st) }

// Wait implements Policy.
func (Park) Wait(st *State, ready func() bool) {
	if ready() {
		return
	}
	st.block(ready)
}

// WaitUntil implements Policy: one recheck, then the timed park.
func (Park) WaitUntil(st *State, ready func() bool, deadline time.Time) bool {
	if ready() {
		return true
	}
	return st.blockUntil(ready, deadline)
}

// WaitGlobal implements Policy: nothing will wake a parked ticket
// waiter, so yield on every recheck.
func (Park) WaitGlobal(dist func() uint32) {
	for dist() != 0 {
		runtime.Gosched()
	}
}

// Wake implements Policy.
func (Park) Wake(st *State) { wake(st) }

// Setter is implemented by locks whose waiting policy is configurable.
// SetWait must be called before the lock is shared (like EnableStats);
// swapping policies under live traffic is a data race.
type Setter interface {
	SetWait(Policy)
}
