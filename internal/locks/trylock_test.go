package locks

import (
	"testing"

	"repro/internal/waiter"
)

// White-box TryLock/waiter isolation tests: a TryLock — failed or
// successful — runs under waiter.TryPolicy, i.e. it must never touch a
// node's park State. These tests build park-policy locks, fail TryLocks
// against a held lock, and assert the prober's park state never moved
// (no park counter increment, no parked flag, for any nesting slot).

// assertUntouched fails the test if any of the thread's nodes shows
// park activity.
func assertUntouched(t *testing.T, name string, states []*waiter.State) {
	t.Helper()
	for i, st := range states {
		if st.Parks() != 0 {
			t.Errorf("%s: slot %d park counter moved to %d on a TryLock path", name, i, st.Parks())
		}
		if st.Parked() {
			t.Errorf("%s: slot %d left with parked intent set", name, i)
		}
	}
}

// nodeStates collects the wait states of a thread's queue nodes.
func nodeStates(th *Thread) []*waiter.State {
	out := make([]*waiter.State, 0, MaxNesting)
	for j := range th.nodes {
		out = append(out, &th.nodes[j].Wait)
	}
	return out
}

func TestTryLockNeverTouchesWaiterStateMCS(t *testing.T) {
	l := NewMCS()
	l.SetWait(waiter.SpinThenPark{})
	holder, prober := NewThread(0, 0), NewThread(1, 1)
	l.Lock(holder)
	for i := 0; i < 100; i++ {
		if l.TryLock(prober) {
			t.Fatal("TryLock succeeded on a held MCS lock")
		}
	}
	assertUntouched(t, "MCS-park", nodeStates(prober))
	l.Unlock(holder)
	// A successful TryLock must not touch the state either (it enters
	// an empty queue, where no one can wake it and it never waits).
	if !l.TryLock(prober) {
		t.Fatal("TryLock failed on a free MCS lock")
	}
	assertUntouched(t, "MCS-park", nodeStates(prober))
	l.Unlock(prober)
}

func TestTryLockNeverTouchesWaiterStateMalthusian(t *testing.T) {
	l := DefaultMalthusian()
	l.SetWait(waiter.SpinThenPark{})
	holder, prober := NewThread(0, 0), NewThread(1, 1)
	l.Lock(holder)
	for i := 0; i < 100; i++ {
		if l.TryLock(prober) {
			t.Fatal("TryLock succeeded on a held MCSCR lock")
		}
	}
	assertUntouched(t, "MCSCR-park", nodeStates(prober))
	l.Unlock(holder)
}

func TestTryLockNeverTouchesWaiterStateCLH(t *testing.T) {
	l := NewCLH(2)
	l.SetWait(waiter.SpinThenPark{})
	holder, prober := NewThread(0, 0), NewThread(1, 1)
	l.Lock(holder)
	states := make([]*waiter.State, 0, MaxNesting)
	for j := range l.slots[prober.ID] {
		states = append(states, &l.slots[prober.ID][j].mine.wait)
	}
	for i := 0; i < 100; i++ {
		if l.TryLock(prober) {
			t.Fatal("TryLock succeeded on a held CLH lock")
		}
	}
	assertUntouched(t, "CLH-park", states)
	l.Unlock(holder)
}
