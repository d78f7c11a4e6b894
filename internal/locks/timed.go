package locks

import (
	"context"
	"time"

	"repro/internal/spinwait"
)

// TimedMutex is a Mutex with bounded-wait acquisition. Every lock in
// this repository implements it; how a timed acquire gives up is
// layer-specific and documented per lock:
//
//   - Flat spin locks (TAS, TTAS, BO-TAS, HBO) hold no queue position,
//     so a timed-out waiter simply stops retrying.
//   - Queue locks (MCS, CLH, CNA, Malthusian, cohort locals, HMCS,
//     qspin) run a Scott-&-Scherer-style abandonment protocol: the
//     timed waiter marks its node abandoned, and the handover path
//     detects the mark and skips the node — no lost grant, no ghost
//     critical section. The waiter takes a fresh node (see
//     Node.Abandon); only CLH and qspin recycle the tombstone itself.
//   - FIFO counter locks (TKT, PTL) cannot abandon a drawn ticket
//     without wedging the grant sequence, so their timed acquire is a
//     deadline-bounded TryLock poll: strictly weaker fairness than
//     their blocking Lock, but safe and non-wedging.
type TimedMutex interface {
	Mutex
	// LockTimeout attempts to acquire the mutex for t, giving up after
	// d. It returns true when the mutex is held (exactly like Lock
	// having returned) and false on expiry, in which case the thread's
	// nesting slot is not consumed and the mutex is untouched — a later
	// Lock/TryLock by any thread (including t) proceeds normally.
	// A non-positive d degrades to TryLock.
	LockTimeout(t *Thread, d time.Duration) bool
}

// TimedNativeMutex is a NativeMutex with bounded-wait acquisition —
// the goroutine-native form of TimedMutex (see gonative.Mutex and the
// stdlib baselines). Both methods leave the mutex untouched on failure.
type TimedNativeMutex interface {
	NativeMutex
	// LockTimeout attempts to acquire the mutex, giving up after d.
	LockTimeout(d time.Duration) bool
	// LockContext acquires the mutex unless ctx is cancelled or its
	// deadline passes first; non-nil means the context's error and the
	// mutex untouched.
	LockContext(ctx context.Context) error
}

// ctxQuantum bounds how long a context-driven acquisition can outlive
// its context's cancellation: the wait is chunked into quantum-sized
// timed acquires with a cancellation check between chunks. Contexts
// that only carry a deadline never pay it — their remaining budget
// caps each chunk anyway.
const ctxQuantum = time.Millisecond

// ContextLock is the canonical LockContext implementation over any
// LockTimeout: nil means the mutex is held; otherwise the context's
// error is returned and the mutex is untouched. Cancellation (as
// opposed to deadline expiry) is observed between timed chunks, so it
// can lag by up to a millisecond.
func ContextLock(ctx context.Context, m interface{ LockTimeout(time.Duration) bool }) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for {
		d := ctxQuantum
		dl, hasDeadline := ctx.Deadline()
		if hasDeadline {
			if r := time.Until(dl); r < d {
				d = r
			}
		}
		if m.LockTimeout(d) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if hasDeadline && !time.Now().Before(dl) {
			// Our clock beat the context's timer to the deadline.
			return context.DeadlineExceeded
		}
	}
}

// PollTimeout runs try until it succeeds or the deadline passes, with
// the adaptive spin-then-yield cadence between attempts. It is the
// timed acquire of the locks that cannot abandon a wait-queue position
// (ticket family, stdlib wrappers): the caller never joins the queue,
// so there is nothing to abandon on expiry.
func PollTimeout(try func() bool, d time.Duration) bool {
	if try() {
		return true
	}
	if d <= 0 {
		return false
	}
	deadline := time.Now().Add(d)
	var s spinwait.Spinner
	for n := 1; ; n++ {
		s.Pause()
		if try() {
			return true
		}
		// Clock reads are amortized over the busy phase (one per 64
		// pauses) and unconditional once the spinner is down to yields.
		if (s.Yielding() || n%64 == 0) && !time.Now().Before(deadline) {
			return try() // one last attempt at the buzzer
		}
	}
}
