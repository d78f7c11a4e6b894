package lockreg

// Wait-policy conformance: every registered lock must stay live and
// mutually exclusive under the parking policies, on hosts down to
// GOMAXPROCS=1. These tests complement the general conformance suite in
// conformance_test.go (which already covers the registered *-park
// variants, since they are ordinary Specs): here the policy is forced
// explicitly via WithWait, oversubscription is guaranteed by pinning
// GOMAXPROCS to 1, and the park/wake handshake is hammered with more
// workers than processors under the race detector.

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locknames"
	"repro/internal/locks"
	"repro/internal/waiter"
)

// hammer drives `workers` goroutines through iters lock/unlock rounds
// each, failing the test on a mutual-exclusion violation and returning
// false if the run did not finish before the deadline (a liveness bug:
// a lost wakeup or a starved holder).
func hammer(t *testing.T, m locks.Mutex, workers, iters int, deadline time.Duration) bool {
	t.Helper()
	ths := confThreads(workers)
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := ths[w]
			for i := 0; i < iters; i++ {
				m.Lock(th)
				counter++
				m.Unlock(th)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(deadline):
		return false
	}
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (mutual exclusion violated)", counter, workers*iters)
	}
	return true
}

// TestConformanceSpinThenParkLiveOnOneCore pins the oversubscription
// liveness contract: with GOMAXPROCS=1 — the worst case, where a
// spinning waiter can only make progress by yielding and a parked one
// only by being woken — every registered lock built with SpinThenPark
// must complete a contended run. Not parallel: it pins the process-wide
// GOMAXPROCS.
func TestConformanceSpinThenParkLiveOnOneCore(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	const workers = 4
	iters := confIters(t) / 4
	for _, spec := range All() {
		t.Run(spec.Name, func(t *testing.T) {
			m := spec.Build(testEnv(workers), WithWait(waiter.SpinThenPark{}))
			if !hammer(t, m, workers, iters, 2*time.Minute) {
				t.Fatalf("%s with SpinThenPark hung at GOMAXPROCS=1 (lost wakeup or starvation)", spec.Name)
			}
		})
	}
}

// TestConformanceRWParkedReaders drives the read side of every
// cohort-RW spec under the parking policies, which WithWait reaches as it
// reaches writers: on one scheduler proc, two writers and three readers
// hammer a lock built WithWait(SpinThenPark{}) and WithWait(Park{}). So
// that readers park by construction rather than by timing, writer 0
// takes the lock before the others start and, on that acquisition and
// every 16th after, holds it until a reader's node reports a park, no
// reader is still running, or a second passes. Writer counters must
// agree exactly, no reader may see a torn pair, the read indicators must
// return to zero, and under Park the reader nodes must have recorded
// parks. Not parallel: it pins the process-wide GOMAXPROCS.
func TestConformanceRWParkedReaders(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const writers, readers = 2, 3
	iters := confIters(t) / 4
	for _, spec := range rwSpecs(t) {
		if spec.Native != nil {
			continue
		}
		for _, p := range []waiter.Policy{waiter.SpinThenPark{}, waiter.Park{}} {
			name := spec.Name + " " + p.Name()
			t.Run(spec.Name+"/"+p.Name(), func(t *testing.T) {
				m := buildRW(t, spec, writers+readers, WithWait(p))
				ths := confThreads(writers + readers)
				rnodes := make([]*locks.Node, readers)
				for r := range rnodes {
					rnodes[r] = ths[writers+r].Node(0)
				}
				parked := func() bool {
					for _, n := range rnodes {
						if n.Wait.Parked() {
							return true
						}
					}
					return false
				}

				var c1, c2 uint64 // mirrored, guarded by the write lock
				var wacquired atomic.Uint64
				var winside, readersLive atomic.Int32
				readersLive.Store(readers)
				start := make(chan struct{})
				var wg sync.WaitGroup
				for w := 0; w < writers+readers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						th := ths[w]
						if w != 0 {
							<-start
						}
						if w >= writers {
							defer readersLive.Add(-1)
							for i := 0; i < iters; i++ {
								m.RLock(th)
								if winside.Load() != 0 {
									t.Errorf("%s: reader admitted with a writer inside", name)
								}
								if r1, r2 := c1, c2; r1 != r2 {
									t.Errorf("%s: reader saw torn counters %d != %d", name, r1, r2)
								}
								m.RUnlock(th)
							}
							return
						}
						for i := 0; i < iters; i++ {
							m.Lock(th)
							if winside.Add(1) != 1 {
								t.Errorf("%s: two writers inside", name)
							}
							c1++
							c2++
							wacquired.Add(1)
							if w == 0 && i%16 == 0 {
								if i == 0 {
									close(start)
								}
								for until := time.Now().Add(time.Second); !parked() && readersLive.Load() > 0 && time.Now().Before(until); {
									runtime.Gosched()
								}
							}
							winside.Add(-1)
							m.Unlock(th)
						}
					}(w)
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(2 * time.Minute):
					t.Fatalf("%s hung at GOMAXPROCS=1 (lost reader wakeup or starvation)", name)
				}

				if c1 != wacquired.Load() || c1 != c2 {
					t.Fatalf("%s: counters (%d, %d) != writer acquisitions %d: lost or duplicated writer",
						name, c1, c2, wacquired.Load())
				}
				if n, ok := readerCount(m); ok && n != 0 {
					t.Fatalf("%s: read indicators at %d after the hammer, want 0", name, n)
				}
				var parks uint32
				for _, n := range rnodes {
					parks += n.Wait.Parks()
				}
				t.Logf("%s: %d reader-node parks", name, parks)
				if _, ok := p.(waiter.Park); ok && parks == 0 {
					t.Errorf("%s: no reader ever parked under Park", name)
				}
			})
		}
	}
}

// TestConformanceParkVariantHandoverRaces is the dedicated -race pass
// over the registered *-park variants: twice as many workers as
// GOMAXPROCS, so park/wake decisions race real preemption on every
// handover. (go test -race alone turns this into the lost-wakeup
// detector; without -race it is still a liveness check.)
func TestConformanceParkVariantHandoverRaces(t *testing.T) {
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	iters := confIters(t) / 2
	for _, spec := range All() {
		if spec.Wait == waiter.Default.Name() {
			continue // base specs are covered by the general suite
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			m := spec.Build(testEnv(workers))
			if !hammer(t, m, workers, iters, 2*time.Minute) {
				t.Fatalf("%s hung under oversubscribed handover hammering", spec.Name)
			}
		})
	}
}

// TestConformanceParkVariantNamesAndPolicy: an explicit WithWait
// overrides the policy a spin-park spec's name implies, and the built
// lock's Name() follows the policy it runs. An -rw spec built WithWait
// carries the policy suffix once, after "-rw", and its writer gate runs
// (and is named for) the same policy. (The catalogue pins every spec's
// Wait; TestCanonicalNameMatchesMutexName pins every default build's
// Name().)
func TestConformanceParkVariantNamesAndPolicy(t *testing.T) {
	m := MustBuild("MCS-park", testEnv(2), WithWait(waiter.Spin{}))
	if got := m.Name(); got != NameMCS {
		t.Errorf("MCS-park built WithWait(Spin) reports %q, want %q", got, NameMCS)
	}
	specs := 0
	for _, spec := range All() {
		if !spec.RW || spec.Name == NameStdRW {
			continue
		}
		specs++
		for _, p := range []waiter.Policy{waiter.SpinThenPark{}, waiter.Park{}} {
			m := spec.Build(testEnv(2), WithWait(p))
			if got, want := m.Name(), spec.Name+p.Suffix(); got != want {
				t.Errorf("%s built WithWait(%s) reports %q, want %q", spec.Name, p.Name(), got, want)
			}
			gate, ok := m.(interface{ Inner() locks.TimedMutex })
			if !ok {
				t.Fatalf("%s: built lock exposes no writer gate", spec.Name)
			}
			if got := gate.Inner().Name(); !strings.HasSuffix(got, p.Suffix()) {
				t.Errorf("%s built WithWait(%s): gate reports %q, want the %q suffix", spec.Name, p.Name(), got, p.Suffix())
			}
		}
	}
	if specs != 6 {
		t.Errorf("checked %d -rw specs, want 6", specs)
	}
}

// TestGCRSingleProcLiveness runs a small plain-Lock storm for every
// *-cr spec on one scheduler proc: with GOMAXPROCS=1 nothing makes
// progress unless every wait in the protocol — culled parks, inner
// queue spins, grant wakes — yields to the scheduler. A stuck spin
// anywhere hangs the test.
func TestGCRSingleProcLiveness(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, spec := range All() {
		if !strings.HasSuffix(spec.Name, locknames.CRSuffix) {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			const workers, iters = 4, 200
			m := spec.Build(testEnv(workers), WithActiveSet(1), WithRotateEvery(8))
			if !hammer(t, m, workers, iters, 2*time.Minute) {
				t.Fatalf("%s hung on one proc with a one-slot gate", spec.Name)
			}
		})
	}
}
