package gonative

// Bounded-wait conformance for the goroutine-native adapter: the timed
// contract must hold end to end — through the slot claim (a starved
// adapter spends its budget waiting for a slot) and the inner lock's
// own abandonment protocol — with no slot ever leaked on the expiry
// path.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lockreg"
	"repro/internal/locks"
)

func TestLockTimeoutExpiryLeavesNoTrace(t *testing.T) {
	for _, spec := range lockreg.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			m := Wrap(spec, testEnv(4))
			tm, ok := m.(locks.TimedNativeMutex)
			if !ok {
				t.Fatalf("%s native build does not implement TimedNativeMutex", spec.Name)
			}
			m.Lock()
			if tm.LockTimeout(2 * time.Millisecond) {
				t.Fatalf("%s: timed acquire succeeded with the lock held throughout", spec.Name)
			}
			m.Unlock()
			if !tm.LockTimeout(5 * time.Second) {
				t.Fatalf("%s: timed acquire of the released lock expired", spec.Name)
			}
			m.Unlock()
			if am, isAdapter := m.(*Mutex); isAdapter {
				if free, capacity := am.PoolStats(); free != capacity {
					t.Fatalf("%s: %d of %d slots free after quiescence", spec.Name, free, capacity)
				}
			}
		})
	}
}

// TestExpiredSlotDoesNotWaitForItsTombstone is the adapter's twin of
// lockreg's TestConformanceTimeoutAcrossLocks, run over each lock that
// queues its slot thread's node: two adapted locks over one pool of two
// slots. A goroutine holds A, so a timed acquire of A from another
// goroutine expires and leaves its slot's node queued in A, and that
// slot is then the only free one. B.Lock claims it, and must return
// while A is still held: the expired waiter took a fresh node for its
// slot instead of leaving the slot to wait for A's queue.
func TestExpiredSlotDoesNotWaitForItsTombstone(t *testing.T) {
	for _, name := range []string{"CNA", "MCS", "MCSCR", "HMCS", "C-BO-MCS"} {
		t.Run(name, func(t *testing.T) {
			spec := lockreg.MustSpec(name)
			pool := NewPool(2, testEnv(2).Topology)
			a := WrapWithPool(spec, testEnv(2), pool)
			b := WrapWithPool(spec, testEnv(2), pool)
			a.Lock()
			expired := make(chan bool)
			go func() { expired <- a.LockTimeout(time.Millisecond) }()
			if <-expired {
				t.Fatal("timed acquire succeeded with the lock held throughout")
			}
			locked := make(chan struct{})
			go func() {
				b.Lock()
				b.Unlock()
				close(locked)
			}()
			select {
			case <-locked:
			case <-time.After(2 * time.Second):
				t.Fatal("B.Lock on the expired waiter's slot waited for A's queue")
			}
			a.Unlock()
			if free, capacity := pool.Free(), pool.Capacity(); free != capacity {
				t.Fatalf("%d of %d slots free after quiescence", free, capacity)
			}
		})
	}
}

// A slot-starved adapter must charge the slot wait against the same
// deadline and must not leak the (never-obtained) slot.
func TestLockTimeoutSlotStarvation(t *testing.T) {
	spec, _ := lockreg.Lookup("mcs")
	m := Wrap(spec, testEnv(1)).(*Mutex)
	m.Lock() // occupies the only slot
	if m.LockTimeout(2 * time.Millisecond) {
		t.Fatal("timed acquire succeeded with every slot claimed")
	}
	m.Unlock()
	if !m.LockTimeout(5 * time.Second) {
		t.Fatal("timed acquire after slot release expired")
	}
	m.Unlock()
	if free, capacity := m.PoolStats(); free != capacity {
		t.Fatalf("%d of %d slots free after quiescence", free, capacity)
	}
}

func TestLockContext(t *testing.T) {
	spec, _ := lockreg.Lookup("cna")
	m := Wrap(spec, testEnv(2)).(*Mutex)

	// Already-done context: error out before touching the lock.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.LockContext(done); err != context.Canceled {
		t.Fatalf("LockContext on a cancelled context: %v", err)
	}

	// Deadline expiry while held.
	m.Lock()
	ctx, cancel2 := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel2()
	if err := m.LockContext(ctx); err != context.DeadlineExceeded {
		t.Fatalf("LockContext under a held lock: %v", err)
	}

	// Cancellation mid-wait (no deadline).
	ctx3, cancel3 := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- m.LockContext(ctx3) }()
	time.Sleep(time.Millisecond)
	cancel3()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("LockContext after cancel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LockContext did not observe cancellation")
	}
	m.Unlock()

	// Free lock, background context: plain acquisition.
	if err := m.LockContext(context.Background()); err != nil {
		t.Fatalf("LockContext on a free lock: %v", err)
	}
	m.Unlock()
	if free, capacity := m.PoolStats(); free != capacity {
		t.Fatalf("%d of %d slots free after quiescence", free, capacity)
	}
}

// Mixed timed/untimed storm through the adapter: exact agreement
// between the under-lock counter and the per-success atomic (no lost
// or duplicated grant across the timeout-vs-handover race), and full
// slot-pool recovery.
func TestNativeTimeoutStorm(t *testing.T) {
	for _, spec := range lockreg.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const capacity = 4
			const workers = capacity + 3
			iters := confIters(t) / 4
			m := Wrap(spec, testEnv(capacity))
			tm := m.(locks.TimedNativeMutex)

			var counter uint64
			var acquired, shed atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						switch (w + i) % 3 {
						case 0:
							m.Lock()
						default:
							if !tm.LockTimeout(time.Duration(i%5) * time.Microsecond) {
								shed.Add(1)
								continue
							}
						}
						counter++
						acquired.Add(1)
						m.Unlock()
					}
				}(w)
			}
			wg.Wait()
			if counter != acquired.Load() {
				t.Fatalf("%s: counter %d != acquisitions %d (shed %d)",
					spec.Name, counter, acquired.Load(), shed.Load())
			}
			if am, isAdapter := m.(*Mutex); isAdapter {
				if free, cap := am.PoolStats(); free != cap {
					t.Fatalf("%s: %d of %d slots free after storm", spec.Name, free, cap)
				}
			}
		})
	}
}
