package locks

import (
	"testing"
	"time"

	"repro/internal/waiter"
)

// stepBound is how long a Queue test waits for a step that takes
// microseconds when the protocol is right: a broken release walk fails
// the test instead of hanging it.
const stepBound = 5 * time.Second

// within runs f and fails the test if it has not returned within stepBound.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(stepBound):
		t.Fatalf("%s did not return within %v", what, stepBound)
	}
}

// awaitTail waits until n is the queue's tail: its owner's swap has
// published it.
func awaitTail(t *testing.T, q *Queue, n *Node) {
	t.Helper()
	for deadline := time.Now().Add(stepBound); q.Tail.Load() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("node never reached the tail within %v", stepBound)
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// TestQueueProtocol drives one Queue through its enqueue, abandonment
// and release cases under every waiting policy, deterministically: an
// empty-queue Lock, a failed TryLock, a timed wait that expires behind
// the holder, a release that skips the tombstone to a live waiter, a
// release whose only successor is a tombstone, and timed successes.
func TestQueueProtocol(t *testing.T) {
	for _, p := range []waiter.Policy{waiter.Spin{}, waiter.SpinThenPark{}, waiter.Park{}} {
		t.Run(p.Name(), func(t *testing.T) {
			var q Queue
			holder := NewNode()
			if v := q.Lock(holder, p); v != nil {
				t.Fatalf("Lock on an empty queue returned %p, want nil", v)
			}

			// A TryLock on a busy queue publishes nothing and leaves
			// its node's waiter state alone.
			prober := NewNode()
			if q.TryLock(prober) {
				t.Fatal("TryLock entered a busy queue")
			}
			if q.Tail.Load() != holder || holder.Next.Load() != nil || q.HasWaiter(holder) {
				t.Fatal("a failed TryLock published its node")
			}
			if prober.Wait.Parks() != 0 || prober.Wait.Parked() {
				t.Fatal("a failed TryLock touched its node's waiter state")
			}

			// A timed wait behind the holder expires and stays queued,
			// at the tail, as a tombstone.
			tomb := NewNode()
			if _, ok := q.LockUntil(tomb, p, time.Now().Add(time.Millisecond)); ok {
				t.Fatal("LockUntil behind a holder reported the lock")
			}
			if tomb.TState.Load() != TSAbandoned {
				t.Fatalf("expired node in TState %d, want TSAbandoned", tomb.TState.Load())
			}
			if q.Tail.Load() != tomb || holder.Next.Load() != tomb || !q.HasWaiter(holder) {
				t.Fatal("the expired node is not queued behind the holder")
			}

			// Unlock skips the tombstone and grants the live waiter
			// queued behind it.
			live := NewNode()
			got := make(chan *Node, 1)
			go func() { got <- q.Lock(live, p) }()
			awaitTail(t, &q, live)
			var delivered bool
			within(t, "Unlock past a tombstone", func() { delivered = q.Unlock(holder, p, granted) })
			if !delivered {
				t.Fatal("Unlock past a tombstone to a live waiter reported no delivery")
			}
			select {
			case v := <-got:
				if v != granted {
					t.Fatalf("the live waiter's Lock returned %p, want the granted value %p", v, granted)
				}
			case <-time.After(stepBound):
				t.Fatal("the live waiter behind the tombstone was never granted")
			}
			if tomb.Spin.Load() != nil || tomb.TState.Load() != TSAbandoned {
				t.Fatal("the release granted the tombstone")
			}

			// A release whose only successor is a tombstone delivers
			// nothing and empties the queue.
			lone := NewNode()
			if _, ok := q.LockUntil(lone, p, time.Now().Add(time.Millisecond)); ok {
				t.Fatal("LockUntil behind a holder reported the lock")
			}
			within(t, "Unlock onto a lone tombstone", func() { delivered = q.Unlock(live, p, granted) })
			if delivered {
				t.Fatal("a release onto a lone tombstone reported a delivery")
			}
			if q.Tail.Load() != nil {
				t.Fatal("a release onto a lone tombstone left the queue non-empty")
			}

			// A timed success leaves the node clean: into an empty
			// queue, and behind a holder that releases in time.
			first := NewNode()
			if v, ok := q.LockUntil(first, p, time.Now().Add(stepBound)); !ok || v != nil {
				t.Fatalf("LockUntil on an empty queue = (%p, %v), want (nil, true)", v, ok)
			}
			if first.TState.Load() != TSClean {
				t.Fatalf("timed entry into an empty queue left TState %d, want TSClean", first.TState.Load())
			}
			second := NewNode()
			type result struct {
				v  *Node
				ok bool
			}
			res := make(chan result, 1)
			go func() {
				v, ok := q.LockUntil(second, p, time.Now().Add(time.Minute))
				res <- result{v, ok}
			}()
			awaitTail(t, &q, second)
			within(t, "Unlock to a timed waiter", func() { delivered = q.Unlock(first, p, granted) })
			if !delivered {
				t.Fatal("Unlock to a live timed waiter reported no delivery")
			}
			select {
			case r := <-res:
				if !r.ok || r.v != granted {
					t.Fatalf("granted LockUntil = (%p, %v), want (%p, true)", r.v, r.ok, granted)
				}
			case <-time.After(stepBound):
				t.Fatal("the timed waiter was never granted")
			}
			if second.TState.Load() != TSClean {
				t.Fatalf("granted timed waiter left TState %d, want TSClean", second.TState.Load())
			}
			within(t, "Unlock of the last holder", func() { delivered = q.Unlock(second, p, granted) })
			if delivered || q.Tail.Load() != nil {
				t.Fatal("the last holder's release did not empty the queue")
			}
		})
	}
}
