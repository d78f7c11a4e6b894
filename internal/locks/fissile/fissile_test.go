package fissile

// White-box tests for the composite protocol itself: the bar bit's
// lifecycle (set by an impatient alpha, closing the fast path; cleared
// atomically by the alpha's acquisition or explicitly by a timed-out
// one), the depth-neutrality of the slow path, and the opt-in stats
// contract, plus two CNA-backed storms: counters against ground truth,
// and bounded barging. The cross-algorithm storms live in the lockreg
// conformance suites, which pick the *-fissile specs up from the
// registry.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
)

func newMCSFissile(threads int, opts ...Option) *Lock {
	return New(locks.NewMCS(threads), opts...)
}

// newCNAFissile is the registry's CNA-fissile: the composite over a CNA
// lock with the paper's defaults.
func newCNAFissile(threads int, opts ...Option) *Lock {
	return New(core.NewWithArena(core.NewArena(threads), core.DefaultOptions()), opts...)
}

// waitFor polls until cond holds, failing the test after a generous
// deadline (spins escalate to Gosched, so this is live at GOMAXPROCS=1).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func TestNameCarriesSuffix(t *testing.T) {
	if got := newMCSFissile(2).Name(); got != "MCS-fissile" {
		t.Fatalf("Name() = %q, want %q", got, "MCS-fissile")
	}
}

// TestFastPathIsDepthNeutral: neither path consumes the Thread's
// nesting slot across Lock/Unlock — the fast path never touches the
// Thread, and the slow path's inner acquire/release nets to zero before
// Lock returns. This is what lets the goroutine-native adapter return
// the slot before the critical section even starts.
func TestFastPathIsDepthNeutral(t *testing.T) {
	l := newMCSFissile(2)
	th := locks.NewThread(0, 0)
	l.Lock(th) // uncontended: fast path
	if d := th.Depth(); d != 0 {
		t.Fatalf("fast-path Lock left nesting depth %d, want 0", d)
	}
	l.Unlock(th)

	// Slow path: close the fast path by hand so Lock must go through
	// the (free) inner queue, then reopen the word mid-wait.
	l2 := newMCSFissile(2, WithPatience(1))
	l2.word.Store(lockedBit)
	done := make(chan int)
	go func() {
		th2 := locks.NewThread(1, 0)
		l2.Lock(th2) // fast CAS fails → inner queue → alpha spin
		done <- th2.Depth()
	}()
	waitFor(t, "alpha to bar the fast path", func() bool {
		return l2.word.Load()&barredBit != 0
	})
	l2.UnlockFast() // hand the word to the queue
	if d := <-done; d != 0 {
		t.Fatalf("slow-path Lock left nesting depth %d, want 0", d)
	}
	l2.Unlock(locks.NewThread(0, 0)) // Unlock ignores the Thread
}

// TestBarClosesFastPath pins the anti-starvation gate: once the alpha
// has barred the word, TryLock and the one-CAS fast path must fail even
// though no thread holds the lock — new arrivals divert into the queue.
func TestBarClosesFastPath(t *testing.T) {
	l := newMCSFissile(2)
	l.word.Store(barredBit) // free but barred
	if l.TryFast() {
		t.Fatal("TryFast succeeded on a barred word")
	}
	if l.TryLock(locks.NewThread(0, 0)) {
		t.Fatal("TryLock succeeded on a barred word")
	}
	if l.LockTimeout(locks.NewThread(0, 0), 0) {
		t.Fatal("LockTimeout(0) succeeded on a barred word")
	}
}

// TestAlphaAcquisitionReopensFastPath: the alpha's CAS takes the lock
// and clears the bar in one step — after it wins, the word is exactly
// lockedBit, and the next release reopens the fast path completely.
func TestAlphaAcquisitionReopensFastPath(t *testing.T) {
	l := newMCSFissile(2, WithPatience(1))
	if !l.TryFast() {
		t.Fatal("TryFast failed on a fresh lock")
	}
	acquired := make(chan struct{})
	go func() {
		l.Lock(locks.NewThread(1, 0))
		close(acquired)
	}()
	waitFor(t, "alpha to bar the fast path", func() bool {
		return l.word.Load()&barredBit != 0
	})
	l.UnlockFast()
	<-acquired
	if w := l.word.Load(); w != lockedBit {
		t.Fatalf("word = %#x after alpha acquisition, want %#x (bar cleared)", w, lockedBit)
	}
	l.UnlockFast()
	if !l.TryFast() {
		t.Fatal("fast path did not reopen after the queue drained")
	}
	l.UnlockFast()
}

// TestTimeoutWithdrawsBar: a timed slow path that expires after barring
// the word must clear its bar on the way out — an abandoned wait must
// never leave the fast path closed.
func TestTimeoutWithdrawsBar(t *testing.T) {
	l := newMCSFissile(2, WithPatience(1))
	if !l.TryFast() {
		t.Fatal("TryFast failed on a fresh lock")
	}
	th := locks.NewThread(1, 0)
	if l.LockTimeout(th, 5*time.Millisecond) {
		t.Fatal("LockTimeout acquired a held lock")
	}
	if w := l.word.Load(); w != lockedBit {
		t.Fatalf("word = %#x after expiry, want %#x (bar withdrawn)", w, lockedBit)
	}
	if d := th.Depth(); d != 0 {
		t.Fatalf("expired LockTimeout left nesting depth %d, want 0", d)
	}
	l.UnlockFast()
	if !l.TryFast() {
		t.Fatal("fast path closed after an expired slow path")
	}
	l.UnlockFast()
}

// TestLockTimeoutNonPositiveDegradesToTryLock pins the TimedMutex
// contract's non-positive-d clause.
func TestLockTimeoutNonPositiveDegradesToTryLock(t *testing.T) {
	l := newMCSFissile(2)
	th := locks.NewThread(0, 0)
	if !l.LockTimeout(th, 0) {
		t.Fatal("LockTimeout(0) failed on a free lock")
	}
	if l.LockTimeout(th, -time.Millisecond) {
		t.Fatal("LockTimeout(-1ms) succeeded on a held lock")
	}
	l.Unlock(th)
}

// TestUnlockUnlockedPanics pins the clear-error contract shared with
// the rest of the lock family.
func TestUnlockUnlockedPanics(t *testing.T) {
	l := newMCSFissile(2)
	defer func() {
		if recover() == nil {
			t.Fatal("UnlockFast of an unlocked fissile lock did not panic")
		}
	}()
	l.UnlockFast()
}

// TestStatsDefaultOffSlowPathToo drives the fast path, the TryLock
// path AND a full bar/hand-back cycle on a default build, then asserts
// every counter is still zero — the default hot paths perform no
// counter writes at all.
func TestStatsDefaultOffSlowPathToo(t *testing.T) {
	l := newMCSFissile(2, WithPatience(1))
	th := locks.NewThread(0, 0)
	l.Lock(th)
	l.Unlock(th)
	if !l.TryLock(th) {
		t.Fatal("TryLock failed on a free lock")
	}

	// Forced slow path with a hand-back while the lock is held.
	acquired := make(chan struct{})
	go func() {
		l.Lock(locks.NewThread(1, 0))
		close(acquired)
	}()
	waitFor(t, "alpha to bar the fast path", func() bool {
		return l.word.Load()&barredBit != 0
	})
	l.UnlockFast()
	<-acquired
	l.UnlockFast()

	if st := l.Stats(); st != (Stats{}) {
		t.Fatalf("default build recorded stats %+v, want zeros", st)
	}
}

// TestStatsOptIn: with EnableStats, the three counters classify
// acquisitions correctly — fast wins, queue wins, and hand-backs.
func TestStatsOptIn(t *testing.T) {
	l := newMCSFissile(2, WithPatience(1))
	l.EnableStats()
	th := locks.NewThread(0, 0)

	l.Lock(th) // fast
	l.Unlock(th)
	if st := l.Stats(); st.FastAcquires != 1 || st.SlowAcquires != 0 || st.Handbacks != 0 {
		t.Fatalf("after one fast acquire: %+v", st)
	}

	l.Lock(th) // hold, forcing the next acquire slow
	acquired := make(chan struct{})
	go func() {
		l.Lock(locks.NewThread(1, 0))
		close(acquired)
	}()
	waitFor(t, "alpha to bar the fast path", func() bool {
		return l.word.Load()&barredBit != 0
	})
	l.UnlockFast()
	<-acquired
	l.UnlockFast()

	st := l.Stats()
	if st.FastAcquires != 2 || st.SlowAcquires != 1 || st.Handbacks != 1 {
		t.Fatalf("after fast+slow cycle: %+v, want {2 1 1}", st)
	}
}

// TestWithPatienceClampsToOne: an alpha must probe at least once.
func TestWithPatienceClampsToOne(t *testing.T) {
	if l := newMCSFissile(2, WithPatience(-7)); l.patience != 1 {
		t.Fatalf("patience = %d, want 1", l.patience)
	}
	if l := newMCSFissile(2); l.patience != DefaultPatience {
		t.Fatalf("default patience = %d, want %d", l.patience, DefaultPatience)
	}
}

// TestFissileStatsAgree cross-checks the composite's opt-in counters
// against ground truth under a mixed Lock/TryLock storm: every
// successful acquisition is classified as exactly one of fast or slow,
// and the classification sums to the acquisition count.
func TestFissileStatsAgree(t *testing.T) {
	const workers = 4
	iters := 2000
	if testing.Short() {
		iters = 200
	}
	l := newCNAFissile(workers, WithPatience(4))
	l.EnableStats()

	var acquired atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := locks.NewThread(w, w%2)
			for i := 0; i < iters; i++ {
				if w%2 == 0 {
					l.Lock(th)
				} else {
					for !l.TryLock(th) {
						runtime.Gosched()
					}
				}
				acquired.Add(1)
				l.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.FastAcquires+st.SlowAcquires != acquired.Load() {
		t.Fatalf("stats classify %d+%d acquisitions, ground truth %d",
			st.FastAcquires, st.SlowAcquires, acquired.Load())
	}
	t.Logf("fast %d, slow %d, handbacks %d", st.FastAcquires, st.SlowAcquires, st.Handbacks)
}

// TestFissileAntiStarvation pins the bounded-barging guarantee: a
// queue waiter forced onto the slow path must acquire in bounded time
// even while a fast-path hammer keeps stealing the word — the alpha's
// patience runs out, the bar closes the fast path, and the hammer's
// next release hands the word to the queue.
func TestFissileAntiStarvation(t *testing.T) {
	l := newCNAFissile(2, WithPatience(8))
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := locks.NewThread(0, 0)
		for !stop.Load() {
			// TryLock is the pure fast path: this goroutine barges
			// every time the word frees up, and never queues.
			if l.TryLock(th) {
				l.Unlock(th)
			}
			runtime.Gosched()
		}
	}()

	done := make(chan struct{})
	go func() {
		th := locks.NewThread(1, 1)
		l.LockSlow(th) // queue path by construction: no fast-path attempt
		l.Unlock(th)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("slow-path waiter starved behind the fast-path hammer")
	}
	stop.Store(true)
	wg.Wait()
}
