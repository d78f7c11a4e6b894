package locks

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/numa"
)

// exercise hammers a mutex with `threads` goroutines each performing
// `iters` increments of an unprotected counter, and fails the test if the
// final count shows a lost update (i.e. mutual exclusion was violated).
func exercise(t *testing.T, mk func(maxThreads int) Mutex, threads, iters int) {
	t.Helper()
	lock := mk(threads)
	topo := numa.TwoSocketXeonE5()
	place := numa.NewPlacement(topo, threads, numa.Spread)

	var counter int // deliberately unprotected; the lock must protect it
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := NewThread(w, place.SocketOf(w))
			for i := 0; i < iters; i++ {
				lock.Lock(th)
				counter++
				lock.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	if want := threads * iters; counter != want {
		t.Fatalf("%s: counter = %d, want %d (mutual exclusion violated)", lock.Name(), counter, want)
	}
}

func allLocks() map[string]func(maxThreads int) Mutex {
	return map[string]func(int) Mutex{
		"TAS":    func(int) Mutex { return NewTAS() },
		"TTAS":   func(int) Mutex { return NewTTAS() },
		"BO-TAS": func(int) Mutex { return NewBackoffTAS(DefaultBackoffMin, DefaultBackoffMax) },
		"MCS":    func(n int) Mutex { return NewMCS() },
		"CLH":    func(n int) Mutex { return NewCLH(n) },
	}
}

func TestMutualExclusion(t *testing.T) {
	for name, mk := range allLocks() {
		mk := mk
		t.Run(name, func(t *testing.T) {
			exercise(t, mk, 8, 300)
		})
	}
}

func TestSingleThreadLockUnlock(t *testing.T) {
	for name, mk := range allLocks() {
		mk := mk
		t.Run(name, func(t *testing.T) {
			lock := mk(1)
			th := NewThread(0, 0)
			for i := 0; i < 100; i++ {
				lock.Lock(th)
				lock.Unlock(th)
			}
			if th.Depth() != 0 {
				t.Fatalf("nesting depth %d after balanced lock/unlock", th.Depth())
			}
		})
	}
}

func TestTwoThreadsAlternate(t *testing.T) {
	// Regression for handover paths: two threads strictly alternating
	// through the queue locks exercise the "successor about to link"
	// window.
	for name, mk := range allLocks() {
		mk := mk
		t.Run(name, func(t *testing.T) {
			exercise(t, mk, 2, 500)
		})
	}
}

func TestNestingTwoLocks(t *testing.T) {
	// A thread holding lock A acquires lock B (LIFO order). Queue locks
	// must hand out distinct nodes per nesting level.
	a, b := NewMCS(), NewMCS()
	var shared int
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := NewThread(w, w%2)
			for i := 0; i < 200; i++ {
				a.Lock(th)
				b.Lock(th)
				shared++
				b.Unlock(th)
				a.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	if shared != 800 {
		t.Fatalf("shared = %d, want 800", shared)
	}
}

func TestNestingOverflowPanics(t *testing.T) {
	th := NewThread(0, 0)
	ls := make([]*MCS, MaxNesting+1)
	for i := range ls {
		ls[i] = NewMCS()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exceeding MaxNesting did not panic")
		}
		// Restore balance so other tests' Thread invariants don't matter.
	}()
	for _, l := range ls {
		l.Lock(th)
	}
}

func TestUnlockWithoutLockPanics(t *testing.T) {
	th := NewThread(0, 0)
	l := NewMCS()
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced unlock did not panic")
		}
	}()
	l.Unlock(th)
}

func TestMCSHandoverCounter(t *testing.T) {
	l := NewMCS()
	l.EnableStats()
	exerciseHandover := func(socket int) {
		th := NewThread(socket, socket) // id == socket for brevity
		l.Lock(th)
		l.Unlock(th)
	}
	exerciseHandover(0)
	exerciseHandover(0)
	exerciseHandover(1)
	exerciseHandover(0)
	local, remote := l.Handovers().Counts()
	if local != 1 || remote != 2 {
		t.Fatalf("handovers = (%d local, %d remote), want (1, 2)", local, remote)
	}
}

func TestHandoverCounterRemoteFraction(t *testing.T) {
	h := NewHandoverCounter()
	if got := h.RemoteFraction(); got != 0 {
		t.Fatalf("empty counter fraction %v", got)
	}
	h.Record(0)
	h.Record(1)
	h.Record(1)
	h.Record(0)
	h.Record(0)
	// transitions: 0→1 remote, 1→1 local, 1→0 remote, 0→0 local
	if got := h.RemoteFraction(); got != 0.5 {
		t.Fatalf("fraction = %v, want 0.5", got)
	}
}

// Property: any interleaving of lock/unlock pairs across a random number
// of threads and iterations preserves the counter (bounded sizes keep the
// property test fast).
func TestMutualExclusionProperty(t *testing.T) {
	f := func(nThreads, nIters uint8) bool {
		threads := int(nThreads)%6 + 2
		iters := int(nIters)%50 + 1
		lock := NewMCS()
		var counter int
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := NewThread(w, w%2)
				for i := 0; i < iters; i++ {
					lock.Lock(th)
					counter++
					lock.Unlock(th)
				}
			}(w)
		}
		wg.Wait()
		return counter == threads*iters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUncontended(b *testing.B) {
	for name, mk := range allLocks() {
		mk := mk
		b.Run(name, func(b *testing.B) {
			lock := mk(1)
			th := NewThread(0, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lock.Lock(th)
				lock.Unlock(th)
			}
		})
	}
}
