package gonative

// The goroutine-native conformance suite: every registered lock —
// including the *-park variants and the stdlib baselines — is driven
// through the adapter the way plain Go code would use a sync.Mutex:
// from anonymous goroutines that migrate freely between OS threads,
// with no *locks.Thread anywhere. The contract:
//
//  1. mutual exclusion survives free goroutine migration (Gosched
//     storms inside and outside the critical section force reschedules
//     mid-acquisition);
//  2. TryLock semantics — true on a free lock, false (without blocking
//     or queueing) on a held one, false when every thread slot is busy;
//  3. slot accounting — claims and releases balance: after quiescence
//     every slot is back in the pool (no leak, no double free).

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/numa"
)

// sync.Locker is the drop-in contract the adapter exists for; the
// second assertion pins that every locks.NativeMutex — whatever New
// returns, stdlib baselines included — is a sync.Locker structurally.
// They sit next to the copylocks guard (go vet flags any copy of Mutex
// via its noCopy field).
var (
	_ sync.Locker = (*Mutex)(nil)
	_ sync.Locker = locks.NativeMutex(nil)
)

func testEnv(capacity int) lockreg.Env {
	return lockreg.Env{MaxThreads: capacity, Topology: numa.TwoSocketXeonE5()}
}

func confIters(t *testing.T) int {
	if testing.Short() {
		return 300
	}
	return 2000
}

// TestNativeConformanceMutualExclusion hammers each adapted lock from
// more goroutines than the pool has slots, so slot claiming, slot
// waiting and the lock protocol all run concurrently, while Gosched
// storms force goroutine migration at every stage.
func TestNativeConformanceMutualExclusion(t *testing.T) {
	for _, spec := range lockreg.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const capacity = 4
			const workers = capacity + 3 // some goroutines must wait for slots
			iters := confIters(t)
			m := Wrap(spec, testEnv(capacity))

			var counter int
			var inside atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						m.Lock()
						if inside.Add(1) != 1 {
							t.Errorf("%s: two goroutines inside the critical section", spec.Name)
						}
						counter++
						if i%7 == 0 {
							runtime.Gosched() // migrate while holding
						}
						inside.Add(-1)
						m.Unlock()
						if i%11 == 0 {
							runtime.Gosched() // migrate between acquisitions
						}
					}
				}(w)
			}
			wg.Wait()
			if counter != workers*iters {
				t.Fatalf("%s: counter = %d, want %d (mutual exclusion violated)",
					spec.Name, counter, workers*iters)
			}
			if a, ok := m.(*Mutex); ok {
				if free, capn := a.PoolStats(); free != capn {
					t.Fatalf("%s: %d of %d slots free after quiescence (slot leak)", spec.Name, free, capn)
				}
			}
		})
	}
}

// TestPartialTopologyUsesPreset: a Topology that sets only Sockets
// fails Validate, so the lock and the slot pool handing it threads must
// both build for the 2-socket preset. Were the lock to take its one
// socket while the pool spread slots over two, HMCS would index past
// its one leaf and C-BO-MCS would reject socket 1 on the first
// acquisition from slot 1.
func TestPartialTopologyUsesPreset(t *testing.T) {
	const workers = 4
	env := lockreg.Env{MaxThreads: workers, Topology: numa.Topology{Sockets: 1}}
	for _, spec := range lockreg.All() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			m, err := New(spec.Name, env)
			if err != nil {
				t.Fatal(err)
			}
			iters := confIters(t)
			var counter int
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						m.Lock()
						counter++
						m.Unlock()
						if i%5 == 0 {
							runtime.Gosched()
						}
					}
				}()
			}
			wg.Wait()
			if counter != workers*iters {
				t.Fatalf("%s: counter = %d, want %d", spec.Name, counter, workers*iters)
			}
		})
	}
}

// TestNativeConformanceTryLock pins TryLock semantics on every adapted
// lock: success on a free lock, failure without blocking on a held one,
// success again once released — then a mixed Lock/TryLock hammer for
// counter integrity.
func TestNativeConformanceTryLock(t *testing.T) {
	for _, spec := range lockreg.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			m := Wrap(spec, testEnv(4))

			if !m.TryLock() {
				t.Fatalf("%s: TryLock failed on a free lock", spec.Name)
			}
			// From another goroutine (the lock is held): must fail, and
			// must return rather than queue — a queued TryLock would
			// deadlock this synchronous wait.
			failed := make(chan bool)
			go func() { failed <- !m.TryLock() }()
			if !<-failed {
				t.Fatalf("%s: TryLock succeeded on a held lock", spec.Name)
			}
			m.Unlock()
			if !m.TryLock() {
				t.Fatalf("%s: TryLock failed after Unlock", spec.Name)
			}
			m.Unlock()

			// Mixed hammer: TryLock winners and Lock callers must still
			// compose to mutual exclusion.
			iters := confIters(t) / 2
			var counter int
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if w%2 == 0 {
							m.Lock()
						} else {
							for !m.TryLock() {
								runtime.Gosched()
							}
						}
						counter++
						m.Unlock()
					}
				}(w)
			}
			wg.Wait()
			if counter != 4*iters {
				t.Fatalf("%s: counter = %d, want %d", spec.Name, counter, 4*iters)
			}
			if a, ok := m.(*Mutex); ok {
				if free, capn := a.PoolStats(); free != capn {
					t.Fatalf("%s: %d of %d slots free after quiescence", spec.Name, free, capn)
				}
			}
		})
	}
}

// TestNativeMigrationSlotAccounting is the -race stress for the slot
// pool itself: goroutines that are deliberately re-scheduled
// (runtime.Gosched storms around every pool interaction) hammer a CNA
// and an MCS-park adapter concurrently; afterwards every slot must be
// free — a double free would surface as a duplicate pop under -race or
// as Free > Capacity, a leak as Free < Capacity.
func TestNativeMigrationSlotAccounting(t *testing.T) {
	for _, name := range []string{"cna", "mcs-park", "std"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const capacity = 3
			const workers = 8
			iters := confIters(t)
			m := MustNew(name, testEnv(capacity))

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						runtime.Gosched()
						if i%3 == 0 && m.TryLock() {
							runtime.Gosched()
							m.Unlock()
							continue
						}
						m.Lock()
						runtime.Gosched()
						m.Unlock()
					}
				}()
			}
			wg.Wait()
			if a, ok := m.(*Mutex); ok {
				free, capn := a.PoolStats()
				if free != capn {
					t.Fatalf("%s: %d of %d slots free after quiescence (leak or double free)", name, free, capn)
				}
				if capn != capacity {
					t.Fatalf("%s: capacity = %d, want %d", name, capn, capacity)
				}
			}
		})
	}
}

// TestNativeSlotExhaustion pins the pool-empty behaviour: with a
// one-slot pool and the lock held, TryLock must fail fast (no slot, no
// block) and Lock must wait for the slot and then proceed — a clear,
// bounded-resource contract instead of node corruption.
func TestNativeSlotExhaustion(t *testing.T) {
	m := Wrap(lockreg.MustSpec("cna"), testEnv(1)).(*Mutex)
	m.Lock()
	if m.TryLock() {
		t.Fatal("TryLock succeeded with every slot claimed")
	}
	acquired := make(chan struct{})
	go func() {
		m.Lock() // must wait for the slot, then the (now free) lock
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("second Lock acquired while the first was held")
	default:
	}
	m.Unlock()
	<-acquired
	m.Unlock()
	if free, capn := m.PoolStats(); free != capn || capn != 1 {
		t.Fatalf("pool = %d/%d free after quiescence, want 1/1", free, capn)
	}
}

// TestNativeUnlockUnlocked pins the clear-error contract.
func TestNativeUnlockUnlocked(t *testing.T) {
	m := MustNew("mcs", testEnv(2))
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of an unlocked adapter did not panic")
		}
	}()
	m.Unlock()
}

// TestNativeNames: the native build reports the spec's canonical name
// (including the stdlib baselines and the -park suffixes), and unknown
// names error with the registry's spelling list.
func TestNativeNames(t *testing.T) {
	for _, spec := range lockreg.All() {
		if got := Wrap(spec, testEnv(2)).Name(); got != spec.Name {
			t.Errorf("native %q reports Name() %q", spec.Name, got)
		}
	}
	if _, err := New("no-such-lock", testEnv(2)); err == nil {
		t.Error("New(no-such-lock) did not error")
	}
	// The stdlib baselines build their own native form, unadapted.
	if _, isAdapter := MustNew("std", testEnv(2)).(*Mutex); isAdapter {
		t.Error("std built through the adapter; want the direct sync.Mutex form")
	}
}

// TestNativeSharedPool: adapters over one pool share thread identities
// and their queue nodes without corrupting either lock's queues.
func TestNativeSharedPool(t *testing.T) {
	env := testEnv(4)
	pool := NewPool(4, env.Topology)
	a := WrapWithPool(lockreg.MustSpec("cna"), env, pool)
	b := WrapWithPool(lockreg.MustSpec("mcs"), env, pool)

	iters := confIters(t) / 2
	var ca, cb int
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a.Lock()
				ca++
				a.Unlock()
				b.Lock()
				cb++
				b.Unlock()
			}
		}()
	}
	wg.Wait()
	if ca != 4*iters || cb != 4*iters {
		t.Fatalf("counters = %d/%d, want %d", ca, cb, 4*iters)
	}
	if free := pool.Free(); free != pool.Capacity() {
		t.Fatalf("shared pool: %d of %d slots free after quiescence", free, pool.Capacity())
	}
}
