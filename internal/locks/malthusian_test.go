package locks

import (
	"time"

	"repro/internal/waiter"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestMalthusianMutualExclusion(t *testing.T) {
	const threads, iters = 8, 300
	l := DefaultMalthusian()
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := NewThread(w, w%2)
			for i := 0; i < iters; i++ {
				l.Lock(th)
				counter++
				l.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	if counter != threads*iters {
		t.Fatalf("counter = %d, want %d", counter, threads*iters)
	}
	if l.passiveLen != 0 || l.passiveHead != nil {
		t.Fatalf("passive list not drained: len=%d", l.passiveLen)
	}
}

func TestMalthusianCullsUnderContention(t *testing.T) {
	const threads, iters = 10, 400
	// Aggressive revival would mask culling; use a large mask so culled
	// threads mostly stay passive within the run.
	l := NewMalthusian(2, 0xffff)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := NewThread(w, w%2)
			for i := 0; i < iters; i++ {
				l.Lock(th)
				// Yield inside the critical section so waiters pile up
				// (a single-core host otherwise keeps the queue short).
				runtime.Gosched()
				runtime.Gosched()
				l.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	culled, revived := l.CullStats()
	if culled == 0 {
		t.Error("10-way contention never culled a waiter")
	}
	if revived > culled {
		t.Errorf("revived %d > culled %d", revived, culled)
	}
}

func TestMalthusianSingleThread(t *testing.T) {
	l := DefaultMalthusian()
	th := NewThread(0, 0)
	for i := 0; i < 200; i++ {
		l.Lock(th)
		l.Unlock(th)
	}
	if c, r := l.CullStats(); c != 0 || r != 0 {
		t.Fatalf("uncontended run culled %d / revived %d", c, r)
	}
}

func TestMalthusianTwoThreadsNeverCull(t *testing.T) {
	// With minActive 2 and only two threads, the estimate never exceeds
	// the floor, so the lock degenerates to plain MCS.
	l := NewMalthusian(2, 0xff)
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := NewThread(w, w)
			for i := 0; i < 400; i++ {
				l.Lock(th)
				counter++
				l.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	if counter != 800 {
		t.Fatalf("counter = %d", counter)
	}
	if c, _ := l.CullStats(); c != 0 {
		t.Fatalf("culled %d waiters with only two threads", c)
	}
}

func TestMalthusianMinActiveNormalised(t *testing.T) {
	l := NewMalthusian(0, 1)
	if l.minActive != 1 {
		t.Fatalf("minActive = %d, want 1", l.minActive)
	}
}

// Property: random small configurations always preserve the counter and
// drain the passive list.
func TestMalthusianQuiescenceProperty(t *testing.T) {
	f := func(nThreads, nIters uint8, mask uint16) bool {
		threads := int(nThreads)%6 + 2
		iters := int(nIters)%40 + 1
		l := NewMalthusian(2, uint64(mask))
		var counter int
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := NewThread(w, w%2)
				for i := 0; i < iters; i++ {
					l.Lock(th)
					counter++
					l.Unlock(th)
				}
			}(w)
		}
		wg.Wait()
		return counter == threads*iters && l.passiveHead == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// waitParked polls an atomic park-state predicate with a deadline.
func waitParked(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestMalthusianPassiveWaitersPark pins the point of routing the
// passivation loop through the waiter policy: under SpinThenPark, a
// culled (passive) thread commits to a blocking park — it stops
// consuming CPU-visible spin iterations for its whole passive tenure —
// and is still revived correctly when the queue drains. Under the
// default all-spin policy the same tenure burns a scheduler yield per
// loop iteration, for an unbounded time.
//
// The choreography is deterministic: A holds the lock, B and C queue
// behind it and park. A's unlock sees B with a successor and an active
// estimate above the floor, so it must cull B (the revive mask is
// all-ones: the probabilistic revive never fires) and grant C. While C
// holds the lock, B is passive — and provably parked, not spinning: its
// node's park flag stays up and its park count stays frozen (park-state
// reads are atomic, so the assertions are race-free). C's unlock
// empties the queue, which must revive B.
func TestMalthusianPassiveWaitersPark(t *testing.T) {
	l := NewMalthusian(1, ^uint64(0))
	l.SetWait(waiter.SpinThenPark{}) // parks right after the busy budget

	thA, thB, thC := NewThread(0, 0), NewThread(1, 1), NewThread(2, 0)
	nodeB, nodeC := thB.Node(0), thC.Node(0)

	l.Lock(thA)
	bDone := make(chan struct{})
	go func() {
		l.Lock(thB)
		l.Unlock(thB)
		close(bDone)
	}()
	waitParked(t, "B to park behind the holder", func() bool { return nodeB.Wait.Parked() })
	cGot := make(chan struct{})
	cRelease := make(chan struct{})
	go func() {
		l.Lock(thC)
		close(cGot)
		<-cRelease
		l.Unlock(thC)
	}()
	waitParked(t, "C to park behind B", func() bool { return nodeC.Wait.Parked() })

	// A's unlock: B has a linked successor and the active estimate (2)
	// exceeds minActive (1), so B is culled and C granted.
	l.Unlock(thA)
	<-cGot

	// B is passive while C holds the lock. It must be parked — flag up,
	// park count frozen — i.e. consuming no CPU-visible spin iterations.
	if !nodeB.Wait.Parked() {
		t.Fatal("culled waiter is not parked — the passivation loop bypassed the policy")
	}
	parks := nodeB.Wait.Parks()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	if !nodeB.Wait.Parked() || nodeB.Wait.Parks() != parks {
		t.Fatalf("passive waiter kept executing: parked=%v parks %d -> %d",
			nodeB.Wait.Parked(), parks, nodeB.Wait.Parks())
	}

	// C's unlock empties the queue: the mandatory drain revive must wake
	// B exactly once, and B must complete.
	close(cRelease)
	select {
	case <-bDone:
	case <-time.After(30 * time.Second):
		t.Fatal("culled waiter was never revived after the queue drained")
	}
	if culled, revived := l.CullStats(); culled != 1 || revived != 1 {
		t.Fatalf("culled/revived = %d/%d, want 1/1", culled, revived)
	}
	if l.passiveLen != 0 || l.passiveHead != nil {
		t.Fatalf("passive list not drained: len=%d", l.passiveLen)
	}
}
