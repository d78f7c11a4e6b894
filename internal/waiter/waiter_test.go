package waiter

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// policies returns every Policy implementation for table-driven tests.
func policies() []Policy {
	return []Policy{Spin{}, SpinThenPark{}, Park{}}
}

func TestNamesAndSuffixes(t *testing.T) {
	cases := []struct {
		p      Policy
		name   string
		suffix string
	}{
		{Spin{}, "spin", ""},
		{SpinThenPark{}, "spin-park", "-park"},
		{Park{}, "park", "-block"},
	}
	for _, c := range cases {
		if got := c.p.Name(); got != c.name {
			t.Errorf("%T.Name() = %q, want %q", c.p, got, c.name)
		}
		if got := c.p.Suffix(); got != c.suffix {
			t.Errorf("%T.Suffix() = %q, want %q", c.p, got, c.suffix)
		}
	}
}

// TestWaitReturnsWhenReady: the basic contract — an already-satisfied
// wait returns without blocking, for every policy.
func TestWaitReturnsWhenReady(t *testing.T) {
	for _, p := range policies() {
		var st State
		done := make(chan struct{})
		go func() {
			p.Wait(&st, func() bool { return true })
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Wait on an always-ready condition hung", p.Name())
		}
	}
}

// TestWakeReleasesParkedWaiter: a waiter that committed to parking is
// released by a grant followed by Wake.
func TestWakeReleasesParkedWaiter(t *testing.T) {
	for _, p := range []Policy{SpinThenPark{}, Park{}} {
		var st State
		var grant atomic.Bool
		done := make(chan struct{})
		go func() {
			p.Wait(&st, grant.Load)
			close(done)
		}()
		// Wait for the waiter to actually park (flag set, park counted).
		deadline := time.Now().Add(5 * time.Second)
		for st.Parks() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: waiter never parked", p.Name())
			}
			runtime.Gosched()
		}
		grant.Store(true)
		p.Wake(&st)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Wake did not release the parked waiter", p.Name())
		}
		if st.Parked() {
			t.Errorf("%s: State still reports parked after wakeup", p.Name())
		}
	}
}

// TestLostWakeupRegression pins the hardest interleaving: the grant is
// published and Wake posted BEFORE Wait ever runs (and again between
// Wait's flag store and its semaphore receive, via the stale-token
// path). A lost wakeup here deadlocks the test; the buffered semaphore
// plus the flag-and-recheck protocol must make it impossible.
func TestLostWakeupRegression(t *testing.T) {
	for _, p := range []Policy{SpinThenPark{}, Park{}} {
		// Round 1: wake strictly before Wait. The waker sees flag==0 and
		// posts nothing; Wait's first ready() must observe the grant.
		var st State
		var grant atomic.Bool
		grant.Store(true)
		p.Wake(&st)
		finished := make(chan struct{})
		go func() {
			p.Wait(&st, grant.Load)
			close(finished)
		}()
		select {
		case <-finished:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: wake-before-Wait lost the wakeup", p.Name())
		}

		// Round 2: force a stale token — park, then grant+wake twice in a
		// row (the second post is dropped by the non-blocking send). The
		// NEXT round must still work: the stale token surfaces as a
		// spurious wakeup, the waiter rechecks and re-parks, and a real
		// wake releases it.
		grant.Store(false)
		released := make(chan struct{})
		go func() {
			p.Wait(&st, grant.Load)
			close(released)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for st.Parks() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: waiter never parked in round 2", p.Name())
			}
			runtime.Gosched()
		}
		grant.Store(true)
		p.Wake(&st)
		p.Wake(&st) // duplicate post: must be dropped, not deadlock
		select {
		case <-released:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: real wake after duplicate posts was lost", p.Name())
		}

		// Round 3: reuse the same State with a possibly-stale token in
		// the semaphore. Prepare drains it; the round must still need —
		// and get — a genuine wake.
		grant.Store(false)
		p.Prepare(&st)
		again := make(chan struct{})
		go func() {
			p.Wait(&st, grant.Load)
			close(again)
		}()
		deadline = time.Now().Add(5 * time.Second)
		parks := st.Parks()
		for st.Parks() == parks {
			if time.Now().After(deadline) {
				t.Fatalf("%s: waiter never re-parked after Prepare", p.Name())
			}
			runtime.Gosched()
		}
		grant.Store(true)
		p.Wake(&st)
		select {
		case <-again:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: wake after Prepare was lost", p.Name())
		}
	}
}

// TestPingPongHandover hammers the full handshake from both sides under
// the race detector: two goroutines hand a virtual lock back and forth
// thousands of rounds through State/Wake, with the waker racing the
// waiter's park decision every round.
func TestPingPongHandover(t *testing.T) {
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	for _, p := range []Policy{SpinThenPark{}, Park{}} {
		var a, b State
		var turn atomic.Int32 // 0: A may run, 1: B may run
		done := make(chan struct{}, 2)
		go func() {
			for i := 0; i < rounds; i++ {
				p.Prepare(&a)
				p.Wait(&a, func() bool { return turn.Load() == 0 })
				turn.Store(1)
				p.Wake(&b)
			}
			done <- struct{}{}
		}()
		go func() {
			for i := 0; i < rounds; i++ {
				p.Prepare(&b)
				p.Wait(&b, func() bool { return turn.Load() == 1 })
				turn.Store(0)
				p.Wake(&a)
			}
			done <- struct{}{}
		}()
		for i := 0; i < 2; i++ {
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("%s: ping-pong deadlocked after some of %d rounds", p.Name(), rounds)
			}
		}
	}
}

// TestSpinWakeIsNoOp: the Spin policy must not touch the State at all —
// its waiters never park, and its Wake must stay free for the handover
// hot path.
func TestSpinWakeIsNoOp(t *testing.T) {
	var st State
	Spin{}.Prepare(&st)
	Spin{}.Wake(&st)
	if st.sema != nil || st.Parked() || st.Parks() != 0 {
		t.Fatal("Spin policy touched the park state")
	}
}
