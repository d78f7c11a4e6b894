package waiter

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitUntilAlreadyReady: an already-satisfied timed wait returns
// true immediately, for every policy, even with an expired deadline
// (grant beats buzzer).
func TestWaitUntilAlreadyReady(t *testing.T) {
	for _, p := range policies() {
		var st State
		if !p.WaitUntil(&st, func() bool { return true }, time.Now().Add(-time.Second)) {
			t.Errorf("%s: WaitUntil on a ready condition with an expired deadline returned false", p.Name())
		}
	}
}

// TestWaitUntilExpires: a never-ready timed wait returns false shortly
// after its deadline, for every policy.
func TestWaitUntilExpires(t *testing.T) {
	for _, p := range policies() {
		var st State
		start := time.Now()
		ok := p.WaitUntil(&st, func() bool { return false }, start.Add(20*time.Millisecond))
		if ok {
			t.Fatalf("%s: WaitUntil on a never-ready condition returned true", p.Name())
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("%s: expiry took %v, deadline was 20ms", p.Name(), waited)
		}
		if st.Parked() {
			t.Errorf("%s: State reports parked intent after a timed-out wait", p.Name())
		}
	}
}

// TestWaitUntilGranted: a grant before the deadline releases the timed
// waiter with true, through the park path where there is one.
func TestWaitUntilGranted(t *testing.T) {
	for _, p := range policies() {
		var st State
		var grant atomic.Bool
		res := make(chan bool, 1)
		go func() {
			res <- p.WaitUntil(&st, grant.Load, time.Now().Add(30*time.Second))
		}()
		// Give the waiter time to reach its waiting phase, then grant.
		time.Sleep(2 * time.Millisecond)
		grant.Store(true)
		p.Wake(&st)
		select {
		case ok := <-res:
			if !ok {
				t.Fatalf("%s: WaitUntil returned false despite a grant well before the deadline", p.Name())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: granted timed wait never returned", p.Name())
		}
	}
}

// TestTimeoutVsWakeRegression is the timed counterpart of
// TestLostWakeupRegression: it hammers the window where the deadline
// fires exactly as the waker publishes the grant and posts. Whatever
// the interleaving, the contract is (a) a true return implies the grant
// was visible, (b) a false return leaves the grant unconsumed for a
// later waiter (the lock-level protocols rely on exactly this), and (c)
// the State is reusable next round with no leaked token or flag.
func TestTimeoutVsWakeRegression(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 80
	}
	for _, p := range []Policy{SpinThenPark{}, Park{}} {
		var st State
		for i := 0; i < rounds; i++ {
			var grant atomic.Bool
			p.Prepare(&st)
			res := make(chan bool, 1)
			// Deadline jitter straddles the waker's delay so both orders
			// (timeout-first, wake-first) occur across rounds.
			d := time.Duration(i%7) * 40 * time.Microsecond
			go func() {
				res <- p.WaitUntil(&st, grant.Load, time.Now().Add(d))
			}()
			time.Sleep(time.Duration((i*13)%5) * 25 * time.Microsecond)
			grant.Store(true)
			p.Wake(&st)
			select {
			case ok := <-res:
				if ok && !grant.Load() {
					t.Fatalf("%s: WaitUntil returned true without a grant", p.Name())
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: timed wait hung in round %d", p.Name(), i)
			}
			if st.Parked() {
				t.Fatalf("%s: parked intent leaked out of round %d", p.Name(), i)
			}
		}
	}
}

// TestStateResetOnTimeout pins the timeout-path reset: a State
// abandoned by a timed-out park — including one a late Wake raced a
// token into — must carry neither a flag nor a stale token into its
// next use, or an oversubscribed placement wrap reusing the node would
// see a spurious instant wake. White-box: it reads the semaphore
// directly.
func TestStateResetOnTimeout(t *testing.T) {
	for _, p := range []Policy{SpinThenPark{}, Park{}} {
		// Round 1: park, time out, then let a late Wake race in while the
		// flag may still be observable. A waiter descheduled past its
		// deadline returns without parking, which leaves nothing to
		// check: such an attempt is repeated on a fresh State with twice
		// the deadline.
		var st *State
		var grant atomic.Bool
		for d := 5 * time.Millisecond; st == nil; d *= 2 {
			if d > 640*time.Millisecond {
				t.Fatalf("%s: timed waiter never parked, last deadline %v", p.Name(), d/2)
			}
			try := new(State)
			res := make(chan bool, 1)
			go func() {
				res <- p.WaitUntil(try, grant.Load, time.Now().Add(d))
			}()
			select {
			case ok := <-res:
				if ok {
					t.Fatalf("%s: never-granted timed wait returned true", p.Name())
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: timed wait with a %v deadline never returned", p.Name(), d)
			}
			if try.Parks() != 0 {
				st = try
			}
		}
		// Late wake after the waiter left: with flag 0 this must post
		// nothing; if the timing left flag visible it posts a token the
		// next Prepare must drain. Either way round 2 may not wake early.
		p.Wake(st)

		if st.Parked() {
			t.Fatalf("%s: flag still set after timed-out wait", p.Name())
		}

		// Round 2: reuse the State the way a queue lock reuses a retired
		// node — Prepare, then a fresh untimed wait. It must genuinely
		// park (no instant spurious wake from round-1 residue) and need a
		// real wake.
		grant.Store(false)
		p.Prepare(st)
		if st.sema != nil {
			select {
			case <-st.sema:
				t.Fatalf("%s: stale token survived Prepare after a timed-out round", p.Name())
			default:
			}
		}
		// Read the park count before the waiter starts: Park parks at
		// once, so a count read after go func could already include the
		// park this loop waits for.
		parks := st.Parks()
		again := make(chan struct{})
		go func() {
			p.Wait(st, grant.Load)
			close(again)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for st.Parks() == parks {
			select {
			case <-again:
				t.Fatalf("%s: reused State woke without parking — round-1 residue", p.Name())
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: reused State never parked", p.Name())
			}
			runtime.Gosched()
		}
		grant.Store(true)
		p.Wake(st)
		select {
		case <-again:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: wake after reuse was lost", p.Name())
		}
	}
}

// TestWaitUntilSpinDeadlineGranularity: Spin's probe-window clock reads
// must still expire promptly relative to serving-path deadlines.
func TestWaitUntilSpinDeadlineGranularity(t *testing.T) {
	var st State
	start := time.Now()
	if (Spin{}).WaitUntil(&st, func() bool { return false }, start.Add(time.Millisecond)) {
		t.Fatal("spin: never-ready timed wait returned true")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("spin: 1ms deadline took %v to expire", waited)
	}
}
