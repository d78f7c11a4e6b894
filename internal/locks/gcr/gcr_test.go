package gcr

// Tests of the admission gate itself: the opt-in counters agree with
// ground truth, rotation keeps every waiter progressing, and an expired
// culled wait leaves no trace. The storms over every registered *-cr
// stack live in the lockreg conformance suite.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
)

// newStatsGate builds the gate over inner with statistics on, for the
// paper's 2-socket machine.
func newStatsGate(inner locks.TimedMutex, opts ...Option) *Lock {
	l := New(inner, 2, opts...)
	l.EnableStats()
	return l
}

// newCNA builds a CNA lock with the paper's defaults for n threads.
func newCNA(n int) *core.Lock {
	return core.NewWithArena(core.NewArena(n), core.DefaultOptions())
}

// spreadThreads builds n worker identities alternating between two
// sockets.
func spreadThreads(n int) []*locks.Thread {
	ths := make([]*locks.Thread, n)
	for i := range ths {
		ths[i] = locks.NewThread(i, i%2)
	}
	return ths
}

// iters is the per-worker iteration budget of the storms below.
func iters(t *testing.T) int {
	if testing.Short() {
		return 200
	}
	return 2000
}

// TestGCRStatsAgree cross-checks the gate's opt-in counters against
// ground truth: every gated acquisition passes exactly one of the
// admitted/culled tallies, and at quiescence the passive list has
// fully drained.
func TestGCRStatsAgree(t *testing.T) {
	const workers = 4
	n := iters(t)
	g := newStatsGate(newCNA(workers), WithActiveSet(2), WithRotateEvery(32))
	ths := spreadThreads(workers)

	var acquired atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(th *locks.Thread) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				g.Lock(th)
				acquired.Add(1)
				g.Unlock(th)
			}
		}(ths[w])
	}
	wg.Wait()
	st := g.Stats()
	if st.Admitted+st.Culled != acquired.Load() {
		t.Fatalf("stats classify %d+%d gate passages, ground truth %d",
			st.Admitted, st.Culled, acquired.Load())
	}
	if p := g.Passive(); p != 0 {
		t.Fatalf("passive list holds %d waiters after quiescence, want 0", p)
	}
	t.Logf("admitted %d, culled %d, granted %d, rotations %d, evictions %d, promotions %d",
		st.Admitted, st.Culled, st.Granted, st.Rotations, st.Evictions, st.Promotions)
}

// TestGCRRotationFairness pins the long-term-fairness guarantee: with
// a single admission slot and a tiny rotation period, four workers all
// complete a fixed acquisition budget — a starved passive waiter would
// hang the test — and the gate demonstrably rotated membership rather
// than letting the first claimant monopolize the slot.
func TestGCRRotationFairness(t *testing.T) {
	const workers = 4
	n := iters(t) / 2
	g := newStatsGate(newCNA(workers), WithActiveSet(1), WithRotateEvery(4))
	ths := spreadThreads(workers)

	counts := make([]atomic.Int64, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := ths[w]
			for i := 0; i < n; i++ {
				g.Lock(th)
				counts[w].Add(1)
				g.Unlock(th)
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		progress := make([]int64, workers)
		for w := range counts {
			progress[w] = counts[w].Load()
		}
		t.Fatalf("a passive waiter starved: per-worker progress %v of %d", progress, n)
	}
	st := g.Stats()
	if st.Rotations+st.Evictions+st.Promotions == 0 {
		t.Fatalf("membership never moved (rotations %d, evictions %d, promotions %d) with %d workers on 1 slot",
			st.Rotations, st.Evictions, st.Promotions, workers)
	}
	if st.Granted+st.Promotions == 0 {
		t.Fatalf("no passive waiter was ever admitted (granted %d, promotions %d)", st.Granted, st.Promotions)
	}
	t.Logf("rotations %d, evictions %d, promotions %d, granted %d",
		st.Rotations, st.Evictions, st.Promotions, st.Granted)
}

// TestGCRTimedExpiryNoTrace pins the culled timed path's contract: a
// waiter whose deadline expires on the passive list returns false
// having touched nothing — no admission slot consumed, no passive
// node leaked, no inner-lock state — and both the former holder and
// fresh threads proceed as if it never arrived.
func TestGCRTimedExpiryNoTrace(t *testing.T) {
	ths := spreadThreads(3)
	g := newStatsGate(locks.NewStd(), WithActiveSet(1))

	g.Lock(ths[0]) // owns the only slot and holds the inner lock
	res := make(chan bool)
	go func() {
		// 3ms: longer than nothing, shorter than the park quantum budget
		// that could let the waiter promote itself past a live owner.
		res <- g.LockTimeout(ths[1], 3*time.Millisecond)
	}()
	if got := <-res; got {
		t.Fatal("culled LockTimeout returned true with the gate and inner lock both held")
	}
	if p := g.Passive(); p != 0 {
		t.Fatalf("expired waiter left %d passive entries, want 0", p)
	}
	st := g.Stats()
	if st.Expired != 1 || st.Granted != 0 {
		t.Fatalf("expiry accounting: expired %d (want 1), granted %d (want 0)", st.Expired, st.Granted)
	}
	// The holder is undisturbed: release, reacquire, release.
	g.Unlock(ths[0])
	g.Lock(ths[0])
	g.Unlock(ths[0])
	// A fresh thread sees a free lock.
	if !g.TryLock(ths[2]) {
		t.Fatal("lock not free for a fresh thread after an expired culled wait")
	}
	g.Unlock(ths[2])
}
