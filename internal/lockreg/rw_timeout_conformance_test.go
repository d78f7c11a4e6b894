package lockreg

// Bounded-wait RW conformance, mirroring timeout_conformance_test.go
// on the read side: an expired RLockTimeout/LockTimeout must leave no
// trace — read indicators back at zero, writer gate released, no
// nesting slot consumed — and the jittered-deadline mixed R/W storm
// must keep exact counter agreement (no grant lost to, or duplicated
// by, the timeout-vs-admission races on either side).

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locks"
)

// TestConformanceRWTimeoutExpiry drives both timed acquires into a
// held lock: reader timeouts against a writer, then a writer timeout
// against readers. Every expiry must leave depth zero, indicators
// zero, and the lock fully functional.
func TestConformanceRWTimeoutExpiry(t *testing.T) {
	for _, spec := range rwSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const workers = 4
			m := buildRW(t, spec, workers)
			ths := confThreads(workers)

			// Readers against a held writer: all expire clean.
			m.Lock(ths[0])
			var wg sync.WaitGroup
			for w := 1; w < workers; w++ {
				wg.Add(1)
				go func(th *locks.Thread) {
					defer wg.Done()
					if m.RLockTimeout(th, 2*time.Millisecond) {
						t.Errorf("%s: timed read acquire succeeded with a writer inside", spec.Name)
						m.RUnlock(th)
						return
					}
					if d := th.Depth(); d != 0 {
						t.Errorf("%s: expired read acquire left nesting depth %d", spec.Name, d)
					}
				}(ths[w])
			}
			wg.Wait()
			if n, ok := readerCount(m); ok && n != 0 {
				t.Errorf("%s: read indicators at %d under a writer (blips must retire), want 0", spec.Name, n)
			}
			m.Unlock(ths[0])

			// A writer against held readers: the timed acquire expires
			// and must release the gate and retract its intent — pinned
			// by readers being admissible immediately after, and by the
			// gate being acquirable once the readers leave.
			m.RLock(ths[0])
			m.RLock(ths[1])
			if m.LockTimeout(ths[2], 2*time.Millisecond) {
				t.Fatalf("%s: timed write acquire succeeded with readers inside", spec.Name)
			}
			if d := ths[2].Depth(); d != 0 {
				t.Fatalf("%s: expired write acquire left nesting depth %d", spec.Name, d)
			}
			if !m.RTryLock(ths[2]) {
				t.Fatalf("%s: reader blocked after a writer's timed acquire expired (stale intent)", spec.Name)
			}
			m.RUnlock(ths[2])
			m.RUnlock(ths[1])
			m.RUnlock(ths[0])
			if !m.TryLock(ths[3]) {
				t.Fatalf("%s: writer gate not released by the timed back-out", spec.Name)
			}
			m.Unlock(ths[3])

			// Generous timed acquires on the now-free lock win on both
			// sides.
			if !m.RLockTimeout(ths[0], 5*time.Second) {
				t.Fatalf("%s: timed read acquire of a free lock expired", spec.Name)
			}
			m.RUnlock(ths[0])
			if !m.LockTimeout(ths[0], 5*time.Second) {
				t.Fatalf("%s: timed write acquire of a free lock expired", spec.Name)
			}
			m.Unlock(ths[0])
		})
	}
}

// TestConformanceRWTimeoutStorm interleaves plain, try and timed
// acquires on both sides with deadlines jittered around the handover
// latency. Writer-side mirrored counters must agree exactly with the
// writer-success atomic; readers assert the mirrors never tear.
//
// On two CPUs the workers barely overlap unless made to, so worker 0
// takes the write lock before it lets the others start, and on that
// acquisition and every 64th iteration after it holds the lock until a
// positive-deadline RLockTimeout has expired or every other worker is
// blocked in Lock or RLock or finished. Four iterations later it holds a
// read lock, under the same fallback, until a positive-deadline
// LockTimeout has expired. By the (w+i)%8 schedule worker 5's second
// iteration is a 1µs RLockTimeout against the first write hold, and a
// dedicated timed writer starts at worker 0's first read hold (or when
// worker 0 finishes without one), so its second iteration is a 1µs
// LockTimeout against that hold, which cannot end through the fallback
// while the timed writer runs. Every spec therefore abandons timed
// waits on both sides by construction; a spec that logs none on either
// side fails.
func TestConformanceRWTimeoutStorm(t *testing.T) {
	for _, spec := range rwSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const mixed = 6
			const workers = mixed + 1 // the last one is the timed writer
			iters := confIters(t) / 4
			m := buildRW(t, spec, workers)
			ths := confThreads(workers)

			var c1, c2 uint64
			var wacquired, shed, rexpired, wexpired atomic.Uint64
			var winside atomic.Int32
			// stalled counts the workers blocked in Lock or RLock or
			// finished.
			var stalled atomic.Int32
			hold := func(expired *atomic.Uint64) {
				for seen := expired.Load(); expired.Load() == seen && stalled.Load() < workers-1; {
					runtime.Gosched()
				}
			}
			start := make(chan struct{})
			// timed starts the timed writer.
			timed := make(chan struct{})
			var startTimed sync.Once
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					defer stalled.Add(1)
					th := ths[w]
					switch w {
					case 0:
						defer startTimed.Do(func() { close(timed) })
					case mixed:
						<-timed
					default:
						<-start
					}
					for i := 0; i < iters; i++ {
						write := false
						op := (w + i) % 8
						if w == mixed {
							op = 2
						}
						switch op {
						case 0:
							stalled.Add(1)
							m.Lock(th)
							stalled.Add(-1)
							write = true
						case 1:
							if !m.TryLock(th) {
								shed.Add(1)
								continue
							}
							write = true
						case 2, 3:
							d := time.Duration(i%7) * time.Microsecond
							if !m.LockTimeout(th, d) {
								if d > 0 {
									wexpired.Add(1)
								}
								shed.Add(1)
								continue
							}
							write = true
						case 4:
							stalled.Add(1)
							m.RLock(th)
							stalled.Add(-1)
						case 5:
							if !m.RTryLock(th) {
								shed.Add(1)
								continue
							}
						default:
							d := time.Duration(i%5) * time.Microsecond
							if !m.RLockTimeout(th, d) {
								if d > 0 {
									rexpired.Add(1)
								}
								shed.Add(1)
								continue
							}
						}
						if write {
							if winside.Add(1) != 1 {
								t.Errorf("%s: two writers inside", spec.Name)
							}
							c1++
							c2++
							wacquired.Add(1)
							if w == 0 && i%64 == 0 {
								if i == 0 {
									close(start)
								}
								hold(&rexpired)
							}
							winside.Add(-1)
							m.Unlock(th)
						} else {
							if winside.Load() != 0 {
								t.Errorf("%s: reader admitted with a writer inside", spec.Name)
							}
							if r1, r2 := c1, c2; r1 != r2 {
								t.Errorf("%s: reader saw torn counters %d != %d", spec.Name, r1, r2)
							}
							if w == 0 && i%64 == 4 {
								startTimed.Do(func() { close(timed) })
								hold(&wexpired)
							}
							m.RUnlock(th)
						}
					}
				}(w)
			}
			wg.Wait()
			t.Logf("%s: %d positive-deadline reader expiries, %d writer expiries", spec.Name, rexpired.Load(), wexpired.Load())
			if rexpired.Load() == 0 {
				t.Errorf("%s: no positive-deadline RLockTimeout expired: the storm never abandoned a read wait", spec.Name)
			}
			if wexpired.Load() == 0 {
				t.Errorf("%s: no positive-deadline LockTimeout expired: the storm never abandoned a write wait", spec.Name)
			}
			if c1 != wacquired.Load() || c1 != c2 {
				t.Fatalf("%s: counters (%d, %d) != writer acquisitions %d (shed %d)",
					spec.Name, c1, c2, wacquired.Load(), shed.Load())
			}
			for w, th := range ths {
				if d := th.Depth(); d != 0 {
					t.Fatalf("%s: thread %d left at nesting depth %d after storm", spec.Name, w, d)
				}
			}
			if n, ok := readerCount(m); ok && n != 0 {
				t.Fatalf("%s: read indicators at %d after storm, want 0", spec.Name, n)
			}
			// Post-storm functional check on every thread identity, both
			// sides.
			for _, th := range ths {
				m.Lock(th)
				c1++
				c2++
				wacquired.Add(1)
				m.Unlock(th)
				m.RLock(th)
				m.RUnlock(th)
			}
		})
	}
}
