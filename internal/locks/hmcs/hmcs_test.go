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
	lock := New(2, DefaultThreshold)
	if got := hammer(t, lock, place, 8, 250); got != 2000 {
		t.Fatalf("counter = %d, want 2000", got)
	}
}

func TestMutualExclusionFourSockets(t *testing.T) {
	place := numa.NewPlacement(numa.FourSocketXeonE7(), 8, numa.Spread)
	lock := New(4, DefaultThreshold)
	if got := hammer(t, lock, place, 8, 250); got != 2000 {
		t.Fatalf("counter = %d, want 2000", got)
	}
}

func TestSingleThread(t *testing.T) {
	lock := New(2, DefaultThreshold)
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
	lock := New(2, 1)
	if got := hammer(t, lock, place, 4, 250); got != 1000 {
		t.Fatalf("counter = %d, want 1000", got)
	}
}

func TestThresholdNormalised(t *testing.T) {
	lock := New(2, 0)
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
	New(0, 1)
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
	lock := New(2, DefaultThreshold)
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
	th1, th2, th3 := locks.NewThread(1, 1), locks.NewThread(2, 0), locks.NewThread(3, 0)
	enqueue(th1, func() bool { return leaf0.root.Next.Load() == leaf1.root })
	enqueue(th2, func() bool { return holder.Node(0).Next.Load() == th2.Node(0) })
	enqueue(th3, func() bool { return th2.Node(0).Next.Load() == th3.Node(0) })
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
	a := New(2, 8)
	b := New(2, 8)
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

// TestTryLockLeavesQueuedTombstoneAlone: a thread whose timed acquire
// abandoned its leaf node leaves the node linked in the socket queue
// until a release walk passes it, and takes a fresh node for the depth.
// Its next acquisition through that depth, a TryLock, must leave the
// tombstone alone: clearing the tombstone's next link would cut the
// queue behind it, so the holder's release walk would stop at the
// tombstone, spin forever waiting for a successor link that was already
// published, and the waiter behind it would never wake.
func TestTryLockLeavesQueuedTombstoneAlone(t *testing.T) {
	lock := New(1, DefaultThreshold)
	holder, timed, waiter := locks.NewThread(0, 0), locks.NewThread(1, 0), locks.NewThread(2, 0)
	lock.Lock(holder)

	tomb := timed.Node(0)
	if lock.LockTimeout(timed, time.Millisecond) {
		t.Fatal("LockTimeout succeeded on a held lock")
	}
	if got := tomb.TState.Load(); got != locks.TSAbandoned {
		t.Fatalf("timed-out node TState = %d, want TSAbandoned", got)
	}
	if timed.Node(0) == tomb {
		t.Fatal("the expired waiter kept its queued node for the depth")
	}

	behind := waiter.Node(0)
	acquired := make(chan struct{})
	go func() {
		lock.Lock(waiter)
		close(acquired)
	}()
	for tomb.Next.Load() != behind {
		runtime.Gosched() // until the waiter has linked in behind the tombstone
	}

	if lock.TryLock(timed) {
		t.Fatal("TryLock succeeded on a held lock")
	}
	if timed.Depth() != 0 {
		t.Fatalf("failed TryLock left nesting depth %d", timed.Depth())
	}
	if tomb.Next.Load() != behind {
		t.Fatal("TryLock rewrote the queued tombstone's next link")
	}

	lock.Unlock(holder)
	select {
	case <-acquired:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter behind the tombstone never acquired the lock")
	}
	lock.Unlock(waiter)
	if !lock.TryLock(timed) {
		t.Fatal("TryLock failed on a free lock after the release walk passed the tombstone")
	}
	lock.Unlock(timed)
}

// TestRootTombstoneIsSkipped: a socket's representative whose timed
// root wait expires leaves the leaf's root node queued in the root queue
// as a tombstone, installs a fresh root node in the leaf and only then
// releases the leaf. The socket's next representative queues the fresh
// node behind the tombstone, and the root holder's release walk must
// skip the tombstone and reach it.
func TestRootTombstoneIsSkipped(t *testing.T) {
	lock := New(2, DefaultThreshold)
	holder, timed, next := locks.NewThread(0, 1), locks.NewThread(1, 0), locks.NewThread(2, 0)
	lock.Lock(holder)

	leaf0 := lock.leaves[0]
	tomb := leaf0.root
	if lock.LockTimeout(timed, time.Millisecond) {
		t.Fatal("LockTimeout succeeded on a held lock")
	}
	if timed.Depth() != 0 {
		t.Fatalf("expired LockTimeout left nesting depth %d", timed.Depth())
	}
	fresh := leaf0.root
	if fresh == tomb {
		t.Fatal("the expired representative left its abandoned root node in the leaf")
	}
	if got := tomb.TState.Load(); got != locks.TSAbandoned {
		t.Fatalf("root tombstone TState = %d, want TSAbandoned", got)
	}

	acquired := make(chan struct{})
	go func() {
		lock.Lock(next)
		close(acquired)
	}()
	for tomb.Next.Load() != fresh {
		runtime.Gosched() // until socket 0's new representative queued behind the tombstone
	}
	lock.Unlock(holder)
	select {
	case <-acquired:
	case <-time.After(10 * time.Second):
		t.Fatal("the root release walk never reached the representative behind the tombstone")
	}
	lock.Unlock(next)
	if !lock.TryLock(timed) {
		t.Fatal("TryLock failed on a free lock")
	}
	lock.Unlock(timed)
}
