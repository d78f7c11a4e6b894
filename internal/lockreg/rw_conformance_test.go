package lockreg

// RW conformance: every spec flagged RW is run through the
// reader-writer contract storms —
//
//  1. no lost writers: under a mixed reader/writer hammer the
//     under-lock counter agrees exactly with the per-success atomic,
//     and a mirrored-counter pair catches a reader overlapping a
//     writer (torn read) even when -race is off;
//  2. readers genuinely parallel: N readers are observed inside the
//     critical section at once (atomic high-water mark) — an RW lock
//     that silently serializes readers is a slow mutex, not an RW lock;
//  3. no writer starvation: under a sustained reader flood a
//     writer-preference lock admits the writer after a bounded number
//     of in-flight reader operations.
//
// The storms run under -race in CI's short test job, which turns the
// mixed hammer into a race hunt around the reader admission points.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locks"
)

// rwSpecs returns every registered RW spec, failing the test if the
// family ever disappears from the registry.
func rwSpecs(t *testing.T) []Spec {
	t.Helper()
	var out []Spec
	for _, spec := range All() {
		if spec.RW {
			out = append(out, spec)
		}
	}
	if len(out) < 2 {
		t.Fatalf("registry has %d RW specs, want at least std-rw plus the cohort-RW variants", len(out))
	}
	return out
}

// buildRW builds an RW spec and asserts the flag told the truth.
func buildRW(t *testing.T, spec Spec, workers int, opts ...Option) locks.RWMutex {
	t.Helper()
	m, ok := spec.Build(testEnv(workers), opts...).(locks.RWMutex)
	if !ok {
		t.Fatalf("%s is flagged RW but does not build a locks.RWMutex", spec.Name)
	}
	return m
}

// readerCount reads the lock's summed read indicators when it exposes
// them (the cohort-RW construction does; sync.RWMutex does not).
func readerCount(m locks.RWMutex) (int64, bool) {
	rc, ok := m.(interface{ ReaderCount() int64 })
	if !ok {
		return 0, false
	}
	return rc.ReaderCount(), true
}

// TestConformanceRWFlag pins the Spec.RW flag against the built type
// in both directions: flagged specs build RW locks, and a spec whose
// build implements the RW contract must be flagged (or sweeps would
// silently skip it).
func TestConformanceRWFlag(t *testing.T) {
	for _, spec := range All() {
		_, isRW := spec.Build(testEnv(2)).(locks.RWMutex)
		if spec.RW && !isRW {
			t.Errorf("%s: RW flag set but build is not a locks.RWMutex", spec.Name)
		}
		if !spec.RW && isRW {
			t.Errorf("%s: builds a locks.RWMutex but is not flagged RW", spec.Name)
		}
	}
}

// TestConformanceRWStorm is the no-lost-writers hammer: racing readers
// and writers, where writers maintain two mirrored plain counters and
// an exclusive-section gauge, and readers assert the mirrors agree —
// a reader observing c1 != c2 has overlapped a writer's critical
// section. Exact agreement between the under-lock counter and the
// per-success atomic catches lost or duplicated writer grants.
func TestConformanceRWStorm(t *testing.T) {
	for _, spec := range rwSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const workers = 4
			iters := confIters(t)
			m := buildRW(t, spec, workers)
			ths := confThreads(workers)

			var c1, c2 uint64 // mirrored, guarded by the write lock
			var wacquired atomic.Uint64
			var winside atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := ths[w]
					for i := 0; i < iters; i++ {
						if (w+i)%4 == 0 { // 25% writes
							m.Lock(th)
							if winside.Add(1) != 1 {
								t.Errorf("%s: two writers inside", spec.Name)
							}
							c1++
							c2++
							wacquired.Add(1)
							winside.Add(-1)
							m.Unlock(th)
						} else {
							m.RLock(th)
							if winside.Load() != 0 {
								t.Errorf("%s: reader admitted with a writer inside", spec.Name)
							}
							if r1, r2 := c1, c2; r1 != r2 {
								t.Errorf("%s: reader saw torn counters %d != %d", spec.Name, r1, r2)
							}
							m.RUnlock(th)
						}
					}
				}(w)
			}
			wg.Wait()
			if c1 != wacquired.Load() || c1 != c2 {
				t.Fatalf("%s: counters (%d, %d) != writer acquisitions %d: lost or duplicated writer",
					spec.Name, c1, c2, wacquired.Load())
			}
			for w, th := range ths {
				if d := th.Depth(); d != 0 {
					t.Fatalf("%s: thread %d left at nesting depth %d", spec.Name, w, d)
				}
			}
			if n, ok := readerCount(m); ok && n != 0 {
				t.Fatalf("%s: read indicators at %d after storm, want 0", spec.Name, n)
			}
		})
	}
}

// TestConformanceRWNeutralStorm reruns a shortened mixed hammer on
// every RW spec built reader-neutral (WithReaderNeutral(true)): the
// safety contract — exclusion and counter agreement — must hold in
// both admission modes, not just the default.
func TestConformanceRWNeutralStorm(t *testing.T) {
	for _, spec := range rwSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const workers = 4
			iters := confIters(t) / 4
			m := buildRW(t, spec, workers, WithReaderNeutral(true))
			ths := confThreads(workers)

			var counter uint64
			var wacquired atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := ths[w]
					for i := 0; i < iters; i++ {
						if (w+i)%4 == 0 {
							m.Lock(th)
							counter++
							wacquired.Add(1)
							m.Unlock(th)
						} else {
							m.RLock(th)
							_ = counter
							m.RUnlock(th)
						}
					}
				}(w)
			}
			wg.Wait()
			if counter != wacquired.Load() {
				t.Fatalf("%s (neutral): counter %d != writer acquisitions %d",
					spec.Name, counter, wacquired.Load())
			}
		})
	}
}

// TestConformanceParallelReaders pins reader parallelism: all N
// readers must be observed inside the critical section at the same
// time. Each reader takes the lock, waits (yielding) for the others,
// and records the concurrent-reader high-water mark; a construction
// that serializes readers never reaches N and fails via the deadline
// rather than hanging.
func TestConformanceParallelReaders(t *testing.T) {
	for _, spec := range rwSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const workers = 4
			m := buildRW(t, spec, workers)
			ths := confThreads(workers)

			var inside, high atomic.Int32
			deadline := time.Now().Add(5 * time.Second)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(th *locks.Thread) {
					defer wg.Done()
					m.RLock(th)
					n := inside.Add(1)
					for {
						if h := high.Load(); n <= h || high.CompareAndSwap(h, n) {
							break
						}
					}
					// Hold the read lock until every reader arrived (or the
					// deadline says the lock serializes readers).
					for inside.Load() < workers && time.Now().Before(deadline) {
						runtime.Gosched()
						if h := inside.Load(); h > high.Load() {
							high.Store(h)
						}
					}
					m.RUnlock(th)
				}(ths[w])
			}
			wg.Wait()
			if got := high.Load(); got != workers {
				t.Fatalf("%s: concurrent-reader high-water mark %d, want %d (readers serialized)",
					spec.Name, got, workers)
			}
		})
	}
}

// TestConformanceWriterAdmission is the no-starvation storm: under a
// sustained reader flood, each writer acquisition must be admitted
// after a bounded number of in-flight reader operations. Under writer
// preference, readers defer as soon as the writer declares intent, so
// only already-admitted readers can finish ahead of it; the bound is
// generous to absorb scheduling noise, but a lock that lets the flood
// starve the writer overshoots it by orders of magnitude (or trips
// the wall-clock liveness fallback). The writer starts only once every
// reader has completed a read, so at one processor too it meets a
// running flood rather than finishing before the readers are scheduled.
func TestConformanceWriterAdmission(t *testing.T) {
	for _, spec := range rwSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const (
				readers     = 3
				writes      = 8
				admitBound  = 4096 // reader ops tolerated per writer admission
				floodWindow = 10 * time.Second
			)
			m := buildRW(t, spec, readers+1)
			ths := confThreads(readers + 1)

			var readerOps atomic.Uint64
			var stop atomic.Bool
			var flowing sync.WaitGroup // readers yet to complete a read
			flowing.Add(readers)
			var wg sync.WaitGroup
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func(th *locks.Thread) {
					defer wg.Done()
					for first := true; !stop.Load(); first = false {
						m.RLock(th)
						readerOps.Add(1)
						m.RUnlock(th)
						if first {
							flowing.Done()
						}
					}
				}(ths[w])
			}
			flowing.Wait()

			writer := ths[readers]
			var worst uint64
			start := time.Now()
			for i := 0; i < writes; i++ {
				before := readerOps.Load()
				m.Lock(writer)
				admitted := readerOps.Load() - before
				m.Unlock(writer)
				worst = max(worst, admitted)
				if admitted > admitBound {
					t.Errorf("%s: writer %d admitted only after %d reader ops (bound %d): starved",
						spec.Name, i, admitted, admitBound)
					break
				}
				if time.Since(start) > floodWindow {
					t.Errorf("%s: %d writer admissions did not finish within %v under reader flood",
						spec.Name, writes, floodWindow)
					break
				}
			}
			stop.Store(true)
			wg.Wait()
			t.Logf("%s: worst writer admission after %d reader ops (bound %d)", spec.Name, worst, admitBound)
		})
	}
}
