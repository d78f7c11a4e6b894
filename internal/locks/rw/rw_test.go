package rw

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/locks"
	"repro/internal/waiter"
)

// TestIndicatorPadding pins the striping contract the whole reader
// fast path depends on: each per-socket read indicator occupies
// exactly one 64-byte cache line, so two sockets' reader counters can
// never false-share (the latent bug class where a layout change
// silently halves reader throughput). Same discipline as core.Node's
// size assertion.
func TestIndicatorPadding(t *testing.T) {
	if got := unsafe.Sizeof(indicator{}); got != 64 {
		t.Fatalf("indicator is %d bytes, want exactly one 64-byte cache line", got)
	}
	if off := unsafe.Offsetof(indicator{}.n); off != 0 {
		t.Fatalf("indicator counter at offset %d, want 0 (line-aligned in the stripe array)", off)
	}
	// The anonymous-hold count lives in the indicator's own padding: the
	// line every anonymous admission and release already writes.
	if off := unsafe.Offsetof(indicator{}.held); off+unsafe.Sizeof(indicator{}.held) > 64 {
		t.Fatalf("indicator held count at offset %d, want it inside the 64-byte line", off)
	}
	// Adjacent stripes must land one full line apart in the slice.
	l := New(locks.NewStd(), 4, 4)
	for i := 1; i < len(l.ind); i++ {
		prev := uintptr(unsafe.Pointer(&l.ind[i-1].n))
		cur := uintptr(unsafe.Pointer(&l.ind[i].n))
		if cur-prev != 64 {
			t.Fatalf("stripes %d and %d are %d bytes apart, want 64", i-1, i, cur-prev)
		}
	}
	// Reader park states are indexed per thread out of one slice and
	// get the same treatment: a wake touching one thread's flag must
	// not invalidate its neighbours'.
	if got := unsafe.Sizeof(paddedState{}); got != 64 {
		t.Fatalf("paddedState is %d bytes, want 64", got)
	}
}

// TestBasicRW exercises the single-threaded contract: read holds
// count, writer excludes readers and vice versa, and every counter
// returns to zero.
func TestBasicRW(t *testing.T) {
	l := New(locks.NewMCS(), 2, 2)
	t0 := locks.NewThread(0, 0)
	t1 := locks.NewThread(1, 1)

	l.RLock(t0)
	l.RLock(t1) // parallel read holds, one per socket stripe
	if got := l.ReaderCount(); got != 2 {
		t.Fatalf("ReaderCount = %d with two read holds, want 2", got)
	}
	if l.TryLock(t0) {
		t.Fatal("writer TryLock succeeded with readers inside")
	}
	l.RUnlock(t1)
	l.RUnlock(t0)
	if got := l.ReaderCount(); got != 0 {
		t.Fatalf("ReaderCount = %d after release, want 0", got)
	}
	if t0.Depth() != 0 || t1.Depth() != 0 {
		t.Fatalf("nesting depth (%d, %d) after release, want 0", t0.Depth(), t1.Depth())
	}

	l.Lock(t0)
	if l.RTryLock(t1) {
		t.Fatal("RTryLock succeeded with a writer inside")
	}
	if l.RLockTimeout(t1, 200*time.Microsecond) {
		t.Fatal("RLockTimeout succeeded with a writer inside")
	}
	if t1.Depth() != 0 {
		t.Fatalf("failed reader attempts consumed nesting slots: depth %d", t1.Depth())
	}
	if got := l.ReaderCount(); got != 0 {
		t.Fatalf("ReaderCount = %d after failed reader attempts (blips must retire), want 0", got)
	}
	l.Unlock(t0)

	l.RLock(t1)
	l.RUnlock(t1)
}

// TestAnonReleasePairsByStripe pins the pairing invariant of anonymous
// read holds with the interleaving that breaks a release decrementing
// any positive stripe: a hold on stripe 1, and a reader's transient
// increment on stripe 0 that it has not yet blipped out. A release
// hinted at stripe 0 must skip it — stripe 0 holds no anonymous hold —
// or the blip's own decrement would drive stripe 0 negative and leave
// stripe 1 held forever, hanging every writer's drain.
func TestAnonReleasePairsByStripe(t *testing.T) {
	l := New(locks.NewStd(), 2, 2)
	if !l.RTryLockAnon(1) {
		t.Fatal("anonymous admission refused on an idle lock")
	}
	l.ind[0].n.Add(1) // a reader's increment, recheck still pending

	if !l.RUnlockAnon(0) {
		t.Fatal("release found no anonymous hold with one outstanding")
	}
	if n0, n1 := l.ind[0].n.Load(), l.ind[1].n.Load(); n0 != 1 || n1 != 0 {
		t.Fatalf("indicators (%d, %d) after the release, want (1, 0): the release must retire stripe 1's hold, not stripe 0's blip", n0, n1)
	}
	l.ind[0].n.Add(-1) // the reader blips out
	for i := range l.ind {
		if n := l.ind[i].n.Load(); n < 0 {
			t.Fatalf("stripe %d went negative: %d", i, n)
		}
	}

	w := locks.NewThread(0, 0)
	if !l.TryLock(w) {
		t.Fatal("writer TryLock refused after every hold was released")
	}
	l.Unlock(w)
	done := make(chan struct{})
	go func() {
		l.Lock(w) // drains every stripe
		l.Unlock(w)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer drain did not complete")
	}

	// A release with no anonymous hold outstanding fails and leaves the
	// indicators alone, even with a Thread's hold counted on them.
	r := locks.NewThread(1, 0)
	l.RLock(r)
	if l.RUnlockAnon(0) {
		t.Fatal("release succeeded with no anonymous hold outstanding")
	}
	if n := l.ReaderCount(); n != 1 {
		t.Fatalf("ReaderCount = %d after a failed release, want the Thread's 1", n)
	}

	// Adopted, the Thread's hold becomes anonymous: the Thread is free
	// again and any hint releases the hold.
	l.RAdopt(r)
	if r.Depth() != 0 {
		t.Fatalf("adopted reader still at nesting depth %d", r.Depth())
	}
	if !l.RUnlockAnon(5) || l.ReaderCount() != 0 {
		t.Fatalf("releasing the adopted hold left ReaderCount = %d, want 0", l.ReaderCount())
	}
}

// TestWriterTimeoutBackout pins the failure class where a writer's
// expired timed acquire leaves stale writer state behind: after a
// failed LockTimeout the waiting count must be retracted (or readers
// would defer forever under writer preference) and the gate released.
func TestWriterTimeoutBackout(t *testing.T) {
	l := New(locks.NewMCS(), 2, 2)
	reader := locks.NewThread(0, 0)
	writer := locks.NewThread(1, 1)

	l.RLock(reader)
	// The gate is free, so this acquires it and then times out in the
	// drain; the back-out must release the gate and lower the flag.
	if l.LockTimeout(writer, 300*time.Microsecond) {
		t.Fatal("writer LockTimeout succeeded with a reader inside")
	}
	if writer.Depth() != 0 {
		t.Fatalf("failed writer timeout consumed a nesting slot: depth %d", writer.Depth())
	}
	// Readers must be admissible again (wwaiting retracted, wactive
	// lowered) with the original reader still inside.
	if !l.RTryLock(writer) {
		t.Fatal("reader blocked after a writer's timed acquire expired")
	}
	l.RUnlock(writer)
	l.RUnlock(reader)

	// With the lock fully idle the gate must be reacquirable.
	if !l.TryLock(writer) {
		t.Fatal("writer gate not released by the timed back-out")
	}
	l.Unlock(writer)
}

// TestNeutralMode checks the mode option: neutral readers ignore
// gate-waiting writers (only an active writer blocks them).
func TestNeutralMode(t *testing.T) {
	l := New(locks.NewStd(), 2, 2, Neutral())
	if !l.NeutralMode() {
		t.Fatal("Neutral() option did not take")
	}
	// Simulate a writer waiting at the gate: in neutral mode a reader
	// must still be admitted.
	l.wwaiting.Add(1)
	r := locks.NewThread(0, 0)
	if !l.RTryLock(r) {
		t.Fatal("neutral-mode reader deferred to a merely waiting writer")
	}
	l.RUnlock(r)
	l.wwaiting.Add(-1)

	wp := New(locks.NewStd(), 2, 2, WriterPreference())
	wp.wwaiting.Add(1)
	if wp.RTryLock(r) {
		t.Fatal("writer-preference reader ignored a waiting writer")
	}
	if r.Depth() != 0 {
		t.Fatalf("failed RTryLock consumed a nesting slot: depth %d", r.Depth())
	}
	wp.wwaiting.Add(-1)
}

// TestNameAndSetWait checks the name composition ("<gate>-rw" plus the
// policy suffix) and that SetWait reaches both the reader layer and
// the gate.
func TestNameAndSetWait(t *testing.T) {
	gate := locks.NewMCS()
	l := New(gate, 2, 1)
	if got := l.Name(); got != "MCS-rw" {
		t.Fatalf("Name() = %q, want MCS-rw", got)
	}
	l.SetWait(waiter.SpinThenPark{})
	if got := l.Name(); got != "MCS-rw-park" {
		t.Fatalf("Name() after SetWait = %q, want MCS-rw-park", got)
	}
	if got := gate.Name(); got != "MCS-park" {
		t.Fatalf("SetWait did not reach the gate: gate Name() = %q", got)
	}
}
