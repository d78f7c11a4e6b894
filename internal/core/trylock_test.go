package core

import (
	"testing"

	"repro/internal/locks"
	"repro/internal/waiter"
)

// TestCNATryLockNeverTouchesWaiterState: CNA's TryLock never waits — a
// failed (or successful) attempt must leave the prober's node park
// state untouched even when the lock's blocking paths park, and must
// never consume a nesting slot on failure.
func TestCNATryLockNeverTouchesWaiterState(t *testing.T) {
	l := NewWithOptions(DefaultOptions())
	l.SetWait(waiter.SpinThenPark{})
	holder, prober := locks.NewThread(0, 0), locks.NewThread(1, 1)
	l.Lock(holder)
	for i := 0; i < 100; i++ {
		if l.TryLock(prober) {
			t.Fatal("TryLock succeeded on a held CNA lock")
		}
		if d := prober.Depth(); d != 0 {
			t.Fatalf("failed TryLock left nesting depth %d", d)
		}
	}
	for j := 0; j < locks.MaxNesting; j++ {
		st := &prober.Node(j).Wait
		if st.Parks() != 0 || st.Parked() {
			t.Fatalf("slot %d park state moved on a failed TryLock", j)
		}
	}
	l.Unlock(holder)

	// A successful TryLock is the uncontended fast path: socket stays
	// unrecorded (-1) and unlock leaves the lock completely free.
	if !l.TryLock(prober) {
		t.Fatal("TryLock failed on a free CNA lock")
	}
	if got := prober.Node(0).Socket; got != -1 {
		t.Fatalf("TryLock recorded socket %d; the fast path must skip the lookup", got)
	}
	l.Unlock(prober)
	if l.q.Tail.Load() != nil {
		t.Fatal("lock not free after TryLock/Unlock round trip")
	}
}
