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
// lock's Name() follows the policy it runs. (The catalogue pins every
// spec's Wait; TestCanonicalNameMatchesMutexName pins every default
// build's Name().)
func TestConformanceParkVariantNamesAndPolicy(t *testing.T) {
	m := MustBuild("MCS-park", testEnv(2), WithWait(waiter.Spin{}))
	if got := m.Name(); got != NameMCS {
		t.Errorf("MCS-park built WithWait(Spin) reports %q, want %q", got, NameMCS)
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
