package lockreg

// The conformance suite: every registered lock is run through the same
// contract checks, so an algorithm added to the registry without
// honouring the Mutex contract fails CI rather than corrupting a
// benchmark. The contract is:
//
//  1. mutual exclusion — at most one thread inside the critical section;
//  2. LIFO nesting — a thread may hold up to locks.MaxNesting distinct
//     locks at once, releasing in reverse acquisition order;
//  3. handover bookkeeping — locks that expose a HandoverCounter, or
//     wrap one that does, must classify a same-socket handover as local
//     and a cross-socket one as remote (the statistic the paper's
//     locality arguments rest on).

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/locks/fissile"
	"repro/internal/numa"
)

// testEnv is the environment conformance locks are built in: the paper's
// 2-socket machine shape with a fixed thread bound.
func testEnv(maxThreads int) Env {
	return Env{MaxThreads: maxThreads, Topology: numa.TwoSocketXeonE5()}
}

// confThreads builds worker identities spread across the two sockets the
// way the harness places unpinned threads.
func confThreads(n int) []*locks.Thread {
	ths := make([]*locks.Thread, n)
	for i := range ths {
		ths[i] = locks.NewThread(i, i%2)
	}
	return ths
}

func confIters(t *testing.T) int {
	if testing.Short() {
		return 400
	}
	return 4000
}

// TestConformanceMutualExclusion hammers each lock with racing
// goroutines incrementing an unprotected counter; a lost update or a
// second thread observed inside the critical section fails the lock.
func TestConformanceMutualExclusion(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const workers = 4
			iters := confIters(t)
			m := spec.Build(testEnv(workers))
			ths := confThreads(workers)

			var counter int
			var inside atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := ths[w]
					for i := 0; i < iters; i++ {
						m.Lock(th)
						if inside.Add(1) != 1 {
							t.Errorf("%s: two threads inside the critical section", spec.Name)
						}
						counter++
						inside.Add(-1)
						m.Unlock(th)
					}
				}(w)
			}
			wg.Wait()
			if counter != workers*iters {
				t.Fatalf("%s: counter = %d, want %d (mutual exclusion violated)",
					spec.Name, counter, workers*iters)
			}
		})
	}
}

// TestConformanceLIFONesting acquires locks.MaxNesting independent
// instances of each algorithm in order and releases them in reverse —
// the nesting discipline every workload in this repo (and the kernel's
// qspinlock node preallocation) relies on. A concurrent phase then nests
// two instances under contention.
func TestConformanceLIFONesting(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const workers = 4
			env := testEnv(workers)

			// Single-threaded full-depth nesting.
			depth := locks.MaxNesting
			chain := make([]locks.Mutex, depth)
			for i := range chain {
				chain[i] = spec.Build(env)
			}
			th := locks.NewThread(0, 0)
			for _, m := range chain {
				m.Lock(th)
			}
			if got := th.Depth(); got > depth {
				t.Fatalf("%s: nesting depth %d exceeds MaxNesting %d", spec.Name, got, depth)
			}
			for i := depth - 1; i >= 0; i-- {
				chain[i].Unlock(th)
			}
			if th.Depth() != 0 {
				t.Fatalf("%s: depth %d after releasing every lock", spec.Name, th.Depth())
			}

			// Contended two-deep nesting: outer protects c1, inner c2.
			outer, inner := spec.Build(env), spec.Build(env)
			iters := confIters(t) / 2
			var c1, c2 int
			ths := confThreads(workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := ths[w]
					for i := 0; i < iters; i++ {
						outer.Lock(th)
						c1++
						inner.Lock(th)
						c2++
						inner.Unlock(th)
						outer.Unlock(th)
					}
				}(w)
			}
			wg.Wait()
			if want := workers * iters; c1 != want || c2 != want {
				t.Fatalf("%s: nested counters = %d/%d, want %d", spec.Name, c1, c2, want)
			}
		})
	}
}

// TestConformanceTryLock pins the TryLock contract on every registered
// lock (all five layers: flat locks, queue locks, cohort, HMCS, CNA):
// success on a free lock, failure — without blocking, queueing or
// consuming a nesting slot — on a held one, success again after
// release, and mutual exclusion when TryLock winners race Lock callers.
func TestConformanceTryLock(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const workers = 4
			m := spec.Build(testEnv(workers))
			ths := confThreads(workers)

			if !m.TryLock(ths[0]) {
				t.Fatalf("%s: TryLock failed on a free lock", spec.Name)
			}
			// A held lock: TryLock from other threads (on both sockets)
			// must fail synchronously and leave no nesting slot claimed.
			for _, th := range ths[1:] {
				if m.TryLock(th) {
					t.Fatalf("%s: TryLock succeeded on a held lock", spec.Name)
				}
				if d := th.Depth(); d != 0 {
					t.Fatalf("%s: failed TryLock left nesting depth %d", spec.Name, d)
				}
			}
			m.Unlock(ths[0])
			if !m.TryLock(ths[1]) {
				t.Fatalf("%s: TryLock failed after Unlock", spec.Name)
			}
			m.Unlock(ths[1])

			// Mixed hammer: alternating Lock and TryLock acquirers must
			// compose to mutual exclusion with no lost updates.
			iters := confIters(t) / 2
			var counter int
			var inside atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := ths[w]
					for i := 0; i < iters; i++ {
						if w%2 == 0 {
							m.Lock(th)
						} else {
							for !m.TryLock(th) {
								runtime.Gosched()
							}
						}
						if inside.Add(1) != 1 {
							t.Errorf("%s: two threads inside the critical section", spec.Name)
						}
						counter++
						inside.Add(-1)
						m.Unlock(th)
					}
				}(w)
			}
			wg.Wait()
			if counter != workers*iters {
				t.Fatalf("%s: counter = %d, want %d (mutual exclusion violated)",
					spec.Name, counter, workers*iters)
			}
		})
	}
}

// handovers returns the lock's handover counter when the algorithm
// maintains one (MCS, the cohort locks, HMCS and CNA do; the simple spin
// locks have no notion of a handover). A composite (rw, fissile, gcr)
// reports the counter of the lock it wraps.
func handovers(m locks.Mutex) (*locks.HandoverCounter, bool) {
	switch l := m.(type) {
	case interface{ Handovers() *locks.HandoverCounter }:
		return l.Handovers(), true
	case *core.Lock:
		return &l.Stats().Handover, true
	case interface{ Inner() locks.TimedMutex }:
		return handovers(l.Inner())
	}
	return nil, false
}

// TestConformanceHandoverLocality drives a deterministic uncontended
// handover sequence — socket 0, socket 0 again, then socket 1 — and
// checks that instrumented locks classify it as exactly one local and
// one remote handover. Statistics are opt-in, so the locks are built
// with WithStats(true). A fissile composite is skipped: its uncontended
// acquisitions take the fast path and never reach the queue.
func TestConformanceHandoverLocality(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m := spec.Build(testEnv(3), WithStats(true))
			if _, ok := m.(*fissile.Lock); ok {
				t.Skipf("%s: the uncontended fast path never reaches the queue", spec.Name)
			}
			h, ok := handovers(m)
			if !ok {
				t.Skipf("%s keeps no handover statistics", spec.Name)
			}
			seq := []*locks.Thread{
				locks.NewThread(0, 0),
				locks.NewThread(1, 0),
				locks.NewThread(2, 1),
			}
			for _, th := range seq {
				m.Lock(th)
				m.Unlock(th)
			}
			local, remote := h.Counts()
			if local != 1 || remote != 1 {
				t.Fatalf("%s: handovers = %d local / %d remote, want 1/1", spec.Name, local, remote)
			}
		})
	}
}

// TestConformanceStatsOptIn pins the default build's zero-overhead
// contract: without WithStats(true), a lock driven through a contended
// handover-heavy run must report all-zero counters (it performed no
// counter writes), while the same workload with WithStats(true) must
// record handovers. A fissile composite is held to its own counters
// instead: its acquisitions may all take the fast path, so with stats on
// they must classify every acquisition as fast or slow.
func TestConformanceStatsOptIn(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const workers = 4
			iters := confIters(t) / 2

			run := func(m locks.Mutex) {
				ths := confThreads(workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						th := ths[w]
						for i := 0; i < iters; i++ {
							m.Lock(th)
							m.Unlock(th)
						}
					}(w)
				}
				wg.Wait()
			}

			def := spec.Build(testEnv(workers), WithStats(false))
			run(def)
			if h, ok := handovers(def); ok {
				if local, remote := h.Counts(); local != 0 || remote != 0 {
					t.Fatalf("%s: default build recorded %d/%d handovers, want 0/0",
						spec.Name, local, remote)
				}
			}
			if l, ok := def.(*core.Lock); ok {
				st := l.Stats()
				if st.SecondaryMoves != 0 || st.QueueAlterations != 0 || st.Flushes != 0 {
					t.Fatalf("%s: default build recorded queue stats %+v, want zeros", spec.Name, st)
				}
			}
			if f, ok := def.(*fissile.Lock); ok && f.Stats() != (fissile.Stats{}) {
				t.Fatalf("%s: default build recorded fissile stats %+v, want zeros", spec.Name, f.Stats())
			}

			inst := spec.Build(testEnv(workers), WithStats(true))
			run(inst)
			if f, ok := inst.(*fissile.Lock); ok {
				if st := f.Stats(); st.FastAcquires+st.SlowAcquires != uint64(workers*iters) {
					t.Fatalf("%s: stats classify %d+%d acquisitions, want %d",
						spec.Name, st.FastAcquires, st.SlowAcquires, workers*iters)
				}
			} else if h, ok := handovers(inst); ok {
				if local, remote := h.Counts(); local+remote == 0 {
					t.Fatalf("%s: WithStats(true) build recorded no handovers", spec.Name)
				}
			}
		})
	}
}
