package gonative

// The goroutine-native RW suite: every RW spec is driven through the
// adapter with more goroutines than the pool has slots, under Gosched
// storms that force migration between every pool interaction —
// mutual exclusion between writers and readers, genuine reader
// parallelism, clean slot accounting (Free == Capacity after
// quiescence), and the compile-time sync.RWMutex shape.

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lockreg"
	"repro/internal/locks"
)

// rwSpecs returns every registered RW spec.
func rwSpecs(t *testing.T) []lockreg.Spec {
	t.Helper()
	var out []lockreg.Spec
	for _, spec := range lockreg.All() {
		if spec.RW {
			out = append(out, spec)
		}
	}
	if len(out) < 2 {
		t.Fatalf("registry has %d RW specs, want std-rw plus the cohort-RW variants", len(out))
	}
	return out
}

// rwShape is the sync.RWMutex method shape the adapter must present;
// the compile-time assertions below pin both the stdlib template and
// the adapter (plus the sync.Locker faces of both sides).
type rwShape interface {
	Lock()
	TryLock() bool
	Unlock()
	RLock()
	TryRLock() bool
	RUnlock()
	RLocker() sync.Locker
}

var (
	_ rwShape             = (*sync.RWMutex)(nil)
	_ rwShape             = (*RWMutex)(nil)
	_ sync.Locker         = (*RWMutex)(nil)
	_ locks.NativeRWMutex = (*RWMutex)(nil)
)

// mustWrapRW builds spec through the RW adapter path.
func mustWrapRW(t *testing.T, spec lockreg.Spec, capacity int) locks.NativeRWMutex {
	t.Helper()
	m, err := WrapRW(spec, testEnv(capacity))
	if err != nil {
		t.Fatalf("WrapRW(%s): %v", spec.Name, err)
	}
	return m
}

// poolFree reports (free, capacity) for adapters that expose a pool;
// std-rw has none (no slots to leak).
func poolFree(m locks.NativeRWMutex) (int, int, bool) {
	ps, ok := m.(interface{ PoolStats() (int, int) })
	if !ok {
		return 0, 0, false
	}
	free, capn := ps.PoolStats()
	return free, capn, true
}

// TestNativeRWConformance is the mixed-hammer storm: writers maintain
// an exclusive gauge and a counter, readers assert no writer is inside,
// with workers > slots so slot waiting interleaves with both admission
// paths, and Gosched storms force migration while holds are open.
// After quiescence every slot must be back in the pool.
func TestNativeRWConformance(t *testing.T) {
	for _, spec := range rwSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const capacity = 4
			const workers = capacity + 3
			iters := confIters(t)
			m := mustWrapRW(t, spec, capacity)

			var counter int
			var winside atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if (w+i)%4 == 0 {
							m.Lock()
							if winside.Add(1) != 1 {
								t.Errorf("%s: two writers inside", spec.Name)
							}
							counter++
							if i%16 == 0 {
								runtime.Gosched() // migrate while write-held
							}
							winside.Add(-1)
							m.Unlock()
						} else {
							m.RLock()
							if winside.Load() != 0 {
								t.Errorf("%s: reader admitted with a writer inside", spec.Name)
							}
							if i%16 == 0 {
								runtime.Gosched() // migrate while read-held
							}
							m.RUnlock()
						}
						if i%32 == 0 {
							runtime.Gosched() // migrate between acquisitions
						}
					}
				}(w)
			}
			wg.Wait()
			if free, capn, ok := poolFree(m); ok && free != capn {
				t.Fatalf("%s: %d of %d slots free after quiescence (slot leak)", spec.Name, free, capn)
			}
		})
	}
}

// TestNativeRWParallelReaders pins that the adapter preserves reader
// parallelism: with capacity slots, capacity readers are observed
// inside together (an adapter funnelling readers through one identity
// would serialize them), and so are twice as many, since read holds
// take no slot.
func TestNativeRWParallelReaders(t *testing.T) {
	const capacity = 4
	for _, spec := range rwSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, readers := range []int32{capacity, 2 * capacity} {
				m := mustWrapRW(t, spec, capacity)

				// inside counts current holders, arrived every reader
				// that got in: a reader leaves once all have arrived (or
				// at the deadline), so high reaches readers only if no
				// reader had to wait for another to leave.
				var inside, arrived, high atomic.Int32
				deadline := time.Now().Add(5 * time.Second)
				var wg sync.WaitGroup
				for w := int32(0); w < readers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						m.RLock()
						n := inside.Add(1)
						arrived.Add(1)
						for {
							if h := high.Load(); n <= h || high.CompareAndSwap(h, n) {
								break
							}
						}
						for arrived.Load() < readers && time.Now().Before(deadline) {
							runtime.Gosched()
						}
						inside.Add(-1)
						m.RUnlock()
					}()
				}
				wg.Wait()
				if got := high.Load(); got != readers {
					t.Fatalf("%s: concurrent-reader high-water mark %d with %d readers over %d slots, want %d", spec.Name, got, readers, capacity, readers)
				}
				if free, capn, ok := poolFree(m); ok && free != capn {
					t.Fatalf("%s: %d of %d slots free after quiescence", spec.Name, free, capn)
				}
			}
		})
	}
}

// TestNativeRWCrossGoroutineRUnlock pins the sync.RWMutex semantics
// anonymous read holds exist for: a read hold taken on one goroutine
// may be retired by another.
func TestNativeRWCrossGoroutineRUnlock(t *testing.T) {
	m := MustNewRW("CNA-rw", testEnv(4))
	m.RLock()
	done := make(chan struct{})
	go func() {
		m.RUnlock()
		close(done)
	}()
	<-done
	// The lock must be fully released: a writer can take it.
	if !m.TryLock() {
		t.Fatal("writer TryLock failed after cross-goroutine RUnlock")
	}
	m.Unlock()
	if free, capn, ok := poolFree(m); ok && free != capn {
		t.Fatalf("%d of %d slots free after cross-goroutine RUnlock", free, capn)
	}
}

// TestNativeRWRUnlockOnAnotherStripe: a read hold taken on one
// indicator stripe and released by a goroutine hinting another must
// still retire exactly that hold — the writer gets in and no reader is
// counted — and a release with no hold outstanding still panics.
func TestNativeRWRUnlockOnAnotherStripe(t *testing.T) {
	hint := pinHint(t)
	m := MustNewRW("CNA-rw", testEnv(4)).(*RWMutex)

	*hint = 0
	m.RLock()
	*hint = 1
	m.RUnlock()
	if !m.TryLock() {
		t.Fatal("writer TryLock failed after an RUnlock hinting another stripe")
	}
	m.Unlock()
	if n := m.Inner().ReaderCount(); n != 0 {
		t.Fatalf("ReaderCount = %d after the release, want 0", n)
	}

	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "un-read-locked") {
			t.Fatalf("second RUnlock panicked with %q, want an un-read-locked panic", msg)
		}
	}()
	m.RUnlock()
}

// TestNativeRWTimed drives the timed faces: reader timeouts against a
// held writer (and vice versa) must expire cleanly with every slot
// returned, and RLocker must take and release real read holds.
func TestNativeRWTimed(t *testing.T) {
	for _, spec := range rwSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			m := mustWrapRW(t, spec, 4)

			m.Lock()
			if m.TryRLock() {
				t.Fatalf("%s: TryRLock succeeded with a writer inside", spec.Name)
			}
			if m.RLockTimeout(2 * time.Millisecond) {
				t.Fatalf("%s: timed read acquire succeeded with a writer inside", spec.Name)
			}
			m.Unlock()

			m.RLock()
			if m.TryLock() {
				t.Fatalf("%s: writer TryLock succeeded with a reader inside", spec.Name)
			}
			if m.LockTimeout(2 * time.Millisecond) {
				t.Fatalf("%s: timed write acquire succeeded with a reader inside", spec.Name)
			}
			m.RUnlock()

			r := m.RLocker()
			r.Lock()
			if m.TryLock() {
				t.Fatalf("%s: writer TryLock succeeded under an RLocker hold", spec.Name)
			}
			r.Unlock()
			if !m.TryLock() {
				t.Fatalf("%s: RLocker.Unlock did not release the read hold", spec.Name)
			}
			m.Unlock()

			if free, capn, ok := poolFree(m); ok && free != capn {
				t.Fatalf("%s: %d of %d slots free after timed exercises", spec.Name, free, capn)
			}
		})
	}
}

// TestNativeRWErrors pins the builder's error paths: unknown names and
// locks without a read side (with the "-rw" suggestion).
func TestNativeRWErrors(t *testing.T) {
	if _, err := NewRW("no-such-lock", testEnv(2)); err == nil {
		t.Fatal("NewRW accepted an unknown name")
	}
	_, err := NewRW("CNA", testEnv(2))
	if err == nil {
		t.Fatal("NewRW accepted a lock without a read side")
	}
	if want := "CNA-rw"; !strings.Contains(err.Error(), want) {
		t.Fatalf("NewRW(CNA) error %q does not point at %q", err, want)
	}
	if _, err := NewRW("std", testEnv(2)); err == nil {
		t.Fatal("NewRW accepted the plain std baseline")
	}
}
