package fissile

// White-box pins for the adaptive patience budget: the alpha's probe
// budget must shrink while the slow-path gauge shows waiters queued
// behind it and return to the full budget once the queue drains.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/locks"
)

func TestEffectivePatienceShrinksUnderQueuePressure(t *testing.T) {
	l := New(locks.NewMCS(), WithPatience(64))
	if got := l.effectivePatience(); got != 64 {
		t.Fatalf("idle effectivePatience = %d, want the full 64", got)
	}
	l.queued.Store(1) // the alpha alone: still the full budget
	if got := l.effectivePatience(); got != 64 {
		t.Fatalf("lone-alpha effectivePatience = %d, want 64", got)
	}
	l.queued.Store(2) // one waiter behind the alpha: shrink
	if got := l.effectivePatience(); got != 64/adaptiveShrink {
		t.Fatalf("queued effectivePatience = %d, want %d", got, 64/adaptiveShrink)
	}
	l.queued.Store(0) // drained: grow back
	if got := l.effectivePatience(); got != 64 {
		t.Fatalf("drained effectivePatience = %d, want 64", got)
	}
}

func TestEffectivePatienceFloor(t *testing.T) {
	l := New(locks.NewMCS(), WithPatience(4))
	l.queued.Store(3)
	if got := l.effectivePatience(); got != 1 {
		t.Fatalf("shrunk effectivePatience = %d, want the floor of 1", got)
	}
}

// TestQueuedGaugeTracksSlowPath drives the real paths: with the outer
// word held by a fast-path acquirer, two LockSlow callers must both be
// visible on the gauge, and the gauge must drain to zero once they
// acquire and release.
func TestQueuedGaugeTracksSlowPath(t *testing.T) {
	l := New(locks.NewMCS(), WithPatience(1<<20)) // patient alpha: it waits us out
	if !l.TryFast() {
		t.Fatal("outer word not free at start")
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := locks.NewThread(id, 0)
			l.LockSlow(th)
			l.Unlock(th)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for l.queued.Load() != 2 {
		if !time.Now().Before(deadline) {
			t.Fatalf("gauge = %d, want 2 slow-path waiters", l.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}
	l.UnlockFast() // release the fast-path hold; the alpha takes over
	wg.Wait()
	if got := l.queued.Load(); got != 0 {
		t.Fatalf("gauge = %d after drain, want 0", got)
	}
	if !l.TryFast() {
		t.Fatal("outer word not free after drain")
	}
	l.UnlockFast()
}
