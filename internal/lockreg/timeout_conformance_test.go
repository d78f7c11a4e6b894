package lockreg

// Bounded-wait conformance: every registered lock builds a
// locks.TimedMutex (Spec.Build's type says so) and must honour its
// contract —
//
//  1. expiry returns false, consumes no nesting slot, and leaves the
//     lock fully functional (no lost lock);
//  2. no double grant: the timeout-vs-handover race on every queue
//     lock resolves to exactly one of "waiter acquired" or "waiter
//     expired", never both (pinned by exact counter agreement under a
//     deadline-jitter storm mixed with plain Lock and TryLock);
//  3. after quiescence every thread is back at nesting depth zero and
//     the lock is free to a TryLock;
//  4. an abandoned queue node never blocks its owner: the thread's next
//     acquisition at that depth, of this lock or any other, does not
//     wait for the tombstone to leave the first lock's queue.
//
// The storm runs under -race in CI (see the short test job), which is
// what turns the jittered deadlines into a race hunt around each
// lock's grant points.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locks"
)

// TestConformanceTimeoutExpiry holds each lock and fires timed
// acquires at it from every other thread: all must expire, consume no
// nesting slot, and leave the lock acquirable once released.
func TestConformanceTimeoutExpiry(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const workers = 4
			m := spec.Build(testEnv(workers))
			ths := confThreads(workers)

			m.Lock(ths[0])
			var wg sync.WaitGroup
			for w := 1; w < workers; w++ {
				wg.Add(1)
				go func(th *locks.Thread) {
					defer wg.Done()
					if m.LockTimeout(th, 2*time.Millisecond) {
						t.Errorf("%s: timed acquire succeeded with the lock held throughout", spec.Name)
						m.Unlock(th)
						return
					}
					if d := th.Depth(); d != 0 {
						t.Errorf("%s: expired timed acquire left nesting depth %d", spec.Name, d)
					}
				}(ths[w])
			}
			wg.Wait()
			m.Unlock(ths[0])

			// No lost lock: every thread (including the ones that just
			// expired) can still take it the ordinary way...
			for _, th := range ths {
				m.Lock(th)
				m.Unlock(th)
			}
			// ...and a generous timed acquire on the now-free lock wins.
			if !m.LockTimeout(ths[1], 5*time.Second) {
				t.Fatalf("%s: timed acquire of a free lock expired", spec.Name)
			}
			m.Unlock(ths[1])
		})
	}
}

// TestConformanceTimeoutStorm is the timeout-vs-handover race storm:
// plain Lock, TryLock and LockTimeout with deadlines jittered around
// the handover latency (0–6µs), all interleaved on every registered
// lock. Exact agreement between the under-lock counter and the
// per-success atomic catches both failure modes of the race — a lost
// lock (grant delivered to a waiter that left: the counter stalls) and
// a double grant (two threads inside: the inside gauge trips, the
// counter tears). The layer knobs are set to churn: a patience of 4
// makes a fissile alpha bar and reopen the fast path constantly, and
// two admission slots rotated every 32 departures keep a GCR gate's
// passive list populated and its grant path busy, so deadlines expire
// at every stage of both protocols. Specs without those layers ignore
// the options.
//
// On two CPUs the workers barely overlap unless made to, so worker 0
// takes the lock before it lets the others start, and holds it on every
// 64th of its Lock iterations until a positive-deadline LockTimeout has
// expired or every other worker is blocked in Lock or finished. By the
// (w+i)%4 schedule worker 1's second iteration is a 1µs LockTimeout
// against that first hold, so every spec abandons at least one timed
// wait by construction; a spec that logs none fails.
func TestConformanceTimeoutStorm(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const workers = 6
			iters := confIters(t) / 2
			m := spec.Build(testEnv(workers), WithPatience(4), WithActiveSet(2), WithRotateEvery(32))
			ths := confThreads(workers)

			var counter uint64
			var acquired, shed, expired atomic.Uint64
			var inside atomic.Int32
			// stalled counts the workers blocked in Lock or finished.
			var stalled atomic.Int32
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					defer stalled.Add(1)
					th := ths[w]
					if w != 0 {
						<-start
					}
					for i := 0; i < iters; i++ {
						switch (w + i) % 4 {
						case 0:
							stalled.Add(1)
							m.Lock(th)
							stalled.Add(-1)
						case 1:
							if !m.TryLock(th) {
								shed.Add(1)
								continue
							}
						default:
							d := time.Duration(i%7) * time.Microsecond
							if !m.LockTimeout(th, d) {
								if d > 0 {
									expired.Add(1)
								}
								shed.Add(1)
								continue
							}
						}
						if inside.Add(1) != 1 {
							t.Errorf("%s: two threads inside the critical section", spec.Name)
						}
						counter++
						acquired.Add(1)
						if w == 0 && i%256 == 0 {
							if i == 0 {
								close(start)
							}
							for seen := expired.Load(); expired.Load() == seen && stalled.Load() < workers-1; {
								runtime.Gosched()
							}
						}
						inside.Add(-1)
						m.Unlock(th)
					}
				}(w)
			}
			wg.Wait()
			t.Logf("%s: %d positive-deadline expiries", spec.Name, expired.Load())
			if expired.Load() == 0 {
				t.Errorf("%s: no positive-deadline LockTimeout expired: the storm never exercised abandonment", spec.Name)
			}
			if counter != acquired.Load() {
				t.Fatalf("%s: counter %d != acquisitions %d (shed %d): lost or duplicated grant",
					spec.Name, counter, acquired.Load(), shed.Load())
			}
			for w, th := range ths {
				if d := th.Depth(); d != 0 {
					t.Fatalf("%s: thread %d left at nesting depth %d after storm", spec.Name, w, d)
				}
			}
			// The lock is free: no stuck lock bit, no fissile bar an
			// expired alpha failed to withdraw, no stuck inner state
			// behind a GCR gate (TryLock bypasses the gate). Checked
			// before any plain Lock, which would clear a leaked bar.
			if !m.TryLock(ths[0]) {
				t.Fatalf("%s: lock not free after quiescence", spec.Name)
			}
			m.Unlock(ths[0])
			// Post-storm functional check on every thread identity; plain
			// Lock bypasses any tombstone an expiring waiter left behind.
			for _, th := range ths {
				m.Lock(th)
				counter++
				m.Unlock(th)
			}
		})
	}
}

// TestConformanceTimeoutAcrossLocks pins point 4 across locks, where a
// wait for the tombstone can deadlock. X holds A and T holds C; T's timed
// acquire of A expires, leaving whatever it queued in A behind X. T then
// takes and drops B and drops C, while X takes C (behind T) and only then
// drops A. If T's acquisition of B at the depth it abandoned in A waited
// for A's queue to let go of the tombstone, T would wait for X's release
// of A, X for T's release of C, and neither would ever finish.
func TestConformanceTimeoutAcrossLocks(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			env := testEnv(2)
			a, b, c := spec.Build(env), spec.Build(env), spec.Build(env)
			ths := confThreads(2)
			x, th := ths[0], ths[1]
			a.Lock(x)
			c.Lock(th)
			if a.LockTimeout(th, time.Millisecond) {
				t.Fatalf("%s: timed acquire succeeded with the lock held throughout", spec.Name)
			}
			done := make(chan struct{}, 2)
			go func() {
				b.Lock(th)
				b.Unlock(th)
				c.Unlock(th)
				done <- struct{}{}
			}()
			go func() {
				c.Lock(x)
				c.Unlock(x)
				a.Unlock(x)
				done <- struct{}{}
			}()
			watchdog := time.After(2 * time.Second)
			for i := 0; i < 2; i++ {
				select {
				case <-done:
				case <-watchdog:
					t.Fatalf("%s: deadlock: the expired waiter's next acquisition waited for its tombstone", spec.Name)
				}
			}
			for _, th := range ths {
				if d := th.Depth(); d != 0 {
					t.Fatalf("%s: thread %d left at nesting depth %d", spec.Name, th.ID, d)
				}
			}
		})
	}
}
