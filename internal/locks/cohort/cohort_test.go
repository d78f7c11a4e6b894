package cohort

import (
	"sync"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/numa"
)

func variants(sockets int) map[string]*Lock {
	return map[string]*Lock{
		"C-BO-MCS":  NewCBOMCS(sockets, DefaultMaxLocalPasses),
		"C-TKT-TKT": NewCTKTTKT(sockets, DefaultMaxLocalPasses),
		"C-PTL-TKT": NewCPTLTKT(sockets, DefaultMaxLocalPasses),
	}
}

func hammer(t *testing.T, lock locks.Mutex, threads, iters int) {
	t.Helper()
	place := numa.NewPlacement(numa.TwoSocketXeonE5(), threads, numa.Spread)
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
	if want := threads * iters; counter != want {
		t.Fatalf("%s: counter = %d, want %d", lock.Name(), counter, want)
	}
}

func TestMutualExclusion(t *testing.T) {
	for name, lock := range variants(2) {
		lock := lock
		t.Run(name, func(t *testing.T) { hammer(t, lock, 8, 200) })
	}
}

func TestSingleThread(t *testing.T) {
	for name, lock := range variants(2) {
		lock := lock
		t.Run(name, func(t *testing.T) {
			th := locks.NewThread(0, 0)
			for i := 0; i < 100; i++ {
				lock.Lock(th)
				lock.Unlock(th)
			}
			if th.Depth() != 0 {
				t.Fatalf("depth %d after balanced use", th.Depth())
			}
		})
	}
}

func TestSingleSocket(t *testing.T) {
	// With one socket, all handovers are cohort passes (up to the budget);
	// the lock must still be correct.
	lock := NewCBOMCS(1, 4)
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := locks.NewThread(w, 0)
			for i := 0; i < 200; i++ {
				lock.Lock(th)
				counter++
				lock.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	if counter != 800 {
		t.Fatalf("counter = %d, want 800", counter)
	}
}

func TestFourSockets(t *testing.T) {
	place := numa.NewPlacement(numa.FourSocketXeonE7(), 8, numa.Spread)
	for name, lock := range variants(4) {
		lock := lock
		t.Run(name, func(t *testing.T) {
			var counter int
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := locks.NewThread(w, place.SocketOf(w))
					for i := 0; i < 150; i++ {
						lock.Lock(th)
						counter++
						lock.Unlock(th)
					}
				}(w)
			}
			wg.Wait()
			if counter != 1200 {
				t.Fatalf("counter = %d, want 1200", counter)
			}
		})
	}
}

func TestSocketOutOfRangePanics(t *testing.T) {
	lock := NewCBOMCS(2, 64)
	th := locks.NewThread(0, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range socket did not panic")
		}
	}()
	lock.Lock(th)
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with no locals did not panic")
		}
	}()
	New("X", locks.DefaultBackoffTAS(), nil, 1)
}

func TestMaxLocalPassesNormalised(t *testing.T) {
	l := NewCTKTTKT(2, 0)
	if l.maxPass != 1 {
		t.Fatalf("maxPass = %d, want 1", l.maxPass)
	}
}

func TestCohortPassingKeepsLockLocal(t *testing.T) {
	// Two threads on socket 0, two on socket 1, heavy traffic: the vast
	// majority of handovers should be local thanks to cohort passing.
	lock := NewCBOMCS(2, DefaultMaxLocalPasses)
	lock.EnableStats()
	hammer(t, lock, 4, 500)
	local, remote := lock.Handovers().Counts()
	if local+remote == 0 {
		t.Fatal("no handovers recorded")
	}
	if frac := lock.Handovers().RemoteFraction(); frac > 0.5 {
		t.Errorf("remote handover fraction %.2f (local=%d remote=%d); cohort passing not effective",
			frac, local, remote)
	}
}

func TestNestedCohortLocks(t *testing.T) {
	// Nesting two distinct cohort locks exercises the slot plumbing.
	a := NewCBOMCS(2, 16)
	b := NewCTKTTKT(2, 16)
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

// TestPassToAbandonedWaiterReleasesGlobal: a cohort pass that finds only
// a tombstone reaches nobody, so the releaser still owns the global lock
// and must release it. A socket-0 waiter's timed acquire expires behind
// the socket-0 holder; the holder's release sees a waiter, passes, and
// the pass lands on nobody. If the global lock leaked, a socket-1
// TryLock would fail forever.
func TestPassToAbandonedWaiterReleasesGlobal(t *testing.T) {
	lock := NewCBOMCS(2, DefaultMaxLocalPasses)
	holder, timed, remote := locks.NewThread(0, 0), locks.NewThread(1, 0), locks.NewThread(2, 1)
	lock.Lock(holder)
	if lock.LockTimeout(timed, time.Millisecond) {
		t.Fatal("LockTimeout succeeded on a held lock")
	}
	if d := timed.Depth(); d != 0 {
		t.Fatalf("expired LockTimeout left nesting depth %d", d)
	}
	lock.Unlock(holder)
	if !lock.TryLock(remote) {
		t.Fatal("socket-1 TryLock failed on a free lock: the pass to the tombstone kept the global lock")
	}
	lock.Unlock(remote)
	for _, th := range []*locks.Thread{holder, timed} {
		if !lock.TryLock(th) {
			t.Fatalf("thread %d: TryLock failed on a free lock", th.ID)
		}
		lock.Unlock(th)
	}
}
