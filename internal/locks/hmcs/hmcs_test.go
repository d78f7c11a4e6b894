package hmcs

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/numa"
)

func hammer(t *testing.T, lock *HMCS, place *numa.Placement, threads, iters int) int {
	t.Helper()
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := locks.NewThread(w, place.SocketOf(w))
			for i := 0; i < iters; i++ {
				lock.Lock(th)
				counter++
				lock.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	return counter
}

func TestMutualExclusionTwoSockets(t *testing.T) {
	place := numa.NewPlacement(numa.TwoSocketXeonE5(), 8, numa.Spread)
	lock := New(2, 8, DefaultThreshold)
	if got := hammer(t, lock, place, 8, 250); got != 2000 {
		t.Fatalf("counter = %d, want 2000", got)
	}
}

func TestMutualExclusionFourSockets(t *testing.T) {
	place := numa.NewPlacement(numa.FourSocketXeonE7(), 8, numa.Spread)
	lock := New(4, 8, DefaultThreshold)
	if got := hammer(t, lock, place, 8, 250); got != 2000 {
		t.Fatalf("counter = %d, want 2000", got)
	}
}

func TestSingleThread(t *testing.T) {
	lock := New(2, 1, DefaultThreshold)
	th := locks.NewThread(0, 1)
	for i := 0; i < 100; i++ {
		lock.Lock(th)
		lock.Unlock(th)
	}
	if th.Depth() != 0 {
		t.Fatalf("depth = %d", th.Depth())
	}
}

func TestThresholdOnePassesGlobally(t *testing.T) {
	// threshold 1 means every release goes through the root: correctness
	// must hold even with zero cohort passing.
	place := numa.NewPlacement(numa.TwoSocketXeonE5(), 4, numa.Spread)
	lock := New(2, 4, 1)
	if got := hammer(t, lock, place, 4, 250); got != 1000 {
		t.Fatalf("counter = %d, want 1000", got)
	}
}

func TestThresholdNormalised(t *testing.T) {
	lock := New(2, 1, 0)
	if lock.threshold != 1 {
		t.Fatalf("threshold = %d, want 1", lock.threshold)
	}
}

func TestZeroSocketsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, ...) did not panic")
		}
	}()
	New(0, 1, 1)
}

// TestLocalHandoverDominates: HMCS passes the lock within the holder's
// socket before crossing to another, whatever the arrival order. The
// queue is built deterministically, each arrival linked before the
// next: while a socket-0 thread holds the lock, a socket-1 thread
// queues first (its socket's representative, in the root queue) and two
// socket-0 threads queue after it (in socket 0's leaf). The release
// chain must serve both socket-0 threads before the earlier socket-1
// arrival: two local handovers, then one remote.
func TestLocalHandoverDominates(t *testing.T) {
	lock := New(2, 4, DefaultThreshold)
	lock.EnableStats()
	holder := locks.NewThread(0, 0)
	lock.Lock(holder)

	served := make(chan int, 3)
	enqueue := func(th *locks.Thread, linked func() bool) {
		go func() {
			lock.Lock(th)
			served <- th.ID
			lock.Unlock(th)
		}()
		for !linked() {
			runtime.Gosched()
		}
	}
	leaf0, leaf1 := lock.leaves[0], lock.leaves[1]
	enqueue(locks.NewThread(1, 1), func() bool { return leaf0.root.next.Load() == &leaf1.root })
	enqueue(locks.NewThread(2, 0), func() bool { return lock.nodes[0][0].next.Load() == &lock.nodes[2][0] })
	enqueue(locks.NewThread(3, 0), func() bool { return lock.nodes[2][0].next.Load() == &lock.nodes[3][0] })
	lock.Unlock(holder)

	for i, want := range []int{2, 3, 1} {
		if got := <-served; got != want {
			t.Fatalf("acquisition %d went to thread %d, want %d (same-socket waiters first)", i+1, got, want)
		}
	}
	if local, remote := lock.Handovers().Counts(); local != 2 || remote != 1 {
		t.Errorf("handovers local=%d remote=%d, want 2 and 1: HMCS not keeping lock local", local, remote)
	}
}

func TestNestedHMCS(t *testing.T) {
	a := New(2, 4, 8)
	b := New(2, 4, 8)
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := locks.NewThread(w, w%2)
			for i := 0; i < 150; i++ {
				a.Lock(th)
				b.Lock(th)
				counter++
				b.Unlock(th)
				a.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	if counter != 600 {
		t.Fatalf("counter = %d, want 600", counter)
	}
}

// TestTryLockLeavesQueuedTombstoneAlone pins the timed-abandonment
// hang: a thread whose timed acquire abandoned its leaf node leaves the
// node linked in the socket queue until a release walk retires it. A
// TryLock through the same nesting slot must fail fast without touching
// that node — clearing its next link cuts the queue behind it, so the
// holder's release walk stops at the tombstone, spins forever waiting
// for a successor link that was already published, and the waiter
// behind it never wakes.
func TestTryLockLeavesQueuedTombstoneAlone(t *testing.T) {
	lock := New(1, 3, DefaultThreshold)
	holder, timed, waiter := locks.NewThread(0, 0), locks.NewThread(1, 0), locks.NewThread(2, 0)
	lock.Lock(holder)

	if lock.LockTimeout(timed, time.Millisecond) {
		t.Fatal("LockTimeout succeeded on a held lock")
	}
	tomb := &lock.nodes[timed.ID][0]
	if got := tomb.tstate.Load(); got != tsAbandoned {
		t.Fatalf("timed-out node tstate = %d, want tsAbandoned", got)
	}

	acquired := make(chan struct{})
	go func() {
		lock.Lock(waiter)
		close(acquired)
	}()
	behind := &lock.nodes[waiter.ID][0]
	for tomb.next.Load() != behind {
		runtime.Gosched() // until the waiter has linked in behind the tombstone
	}

	if lock.TryLock(timed) {
		t.Fatal("TryLock succeeded on a held lock")
	}
	if timed.Depth() != 0 {
		t.Fatalf("failed TryLock left nesting depth %d", timed.Depth())
	}
	if tomb.next.Load() != behind {
		t.Fatal("TryLock rewrote the queued tombstone's next link")
	}

	lock.Unlock(holder)
	select {
	case <-acquired:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter behind the tombstone never acquired the lock")
	}
	lock.Unlock(waiter)
	if got := tomb.tstate.Load(); got != tsClean {
		t.Fatalf("tombstone tstate = %d after the release walk, want tsClean", got)
	}
	if !lock.TryLock(timed) {
		t.Fatal("TryLock failed on a free lock after the tombstone was retired")
	}
	lock.Unlock(timed)
}
