package rw

import (
	"runtime"
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
// size assertion. It also pins the Lock's own lines: the read-only
// header, the writer flags every reader admission loads, and the reader
// stack with the drain state, which contended readers and the draining
// writer write.
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
	l := New(locks.NewStd(), 4)
	for i := 1; i < len(l.ind); i++ {
		prev := uintptr(unsafe.Pointer(&l.ind[i-1].n))
		cur := uintptr(unsafe.Pointer(&l.ind[i].n))
		if cur-prev != 64 {
			t.Fatalf("stripes %d and %d are %d bytes apart, want 64", i-1, i, cur-prev)
		}
	}
	var lk Lock
	for _, f := range []struct {
		name      string
		off, want uintptr
	}{
		{"drainReady (last header field)", unsafe.Offsetof(lk.drainReady), 80},
		{"wactive", unsafe.Offsetof(lk.wactive), 128},
		{"wwaiting", unsafe.Offsetof(lk.wwaiting), 132},
		{"readers", unsafe.Offsetof(lk.readers), 192},
		{"wstate", unsafe.Offsetof(lk.wstate), 200},
		{"Lock size", unsafe.Sizeof(lk), 256},
	} {
		if f.off != f.want {
			t.Errorf("%s at %d, want %d: the Lock is a 128-byte header, the writer-flag line, then the reader-stack line", f.name, f.off, f.want)
		}
	}
}

// TestBasicRW exercises the single-threaded contract: read holds
// count, writer excludes readers and vice versa, and every counter
// returns to zero.
func TestBasicRW(t *testing.T) {
	l := New(locks.NewMCS(), 2)
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
	l := New(locks.NewStd(), 2)
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
	l := New(locks.NewMCS(), 2)
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

// TestExpiredReaderLeavesTombstone pins the timed reader's abandonment
// under each waiting policy. A reader whose deadline passes while a
// writer holds the lock leaves its node on the reader stack, abandoned,
// and takes a fresh node for its depth. An untimed reader that queues on
// top of the tombstone is admitted by the writer's Unlock, which skips
// the tombstone, and the stack ends empty.
func TestExpiredReaderLeavesTombstone(t *testing.T) {
	for _, p := range []waiter.Policy{waiter.Spin{}, waiter.SpinThenPark{}, waiter.Park{}} {
		t.Run(p.Name(), func(t *testing.T) {
			l := New(locks.NewMCS(), 2)
			l.SetWait(p)
			w := locks.NewThread(0, 0)
			timed := locks.NewThread(1, 1)
			plain := locks.NewThread(2, 0)

			l.Lock(w)
			old := timed.Node(0)
			if l.RLockTimeout(timed, time.Millisecond) {
				t.Fatal("timed reader admitted with a writer inside")
			}
			if timed.Depth() != 0 {
				t.Fatalf("expired reader left nesting depth %d", timed.Depth())
			}
			if timed.Node(0) == old {
				t.Fatal("expired reader kept its abandoned node")
			}
			if ts := old.TState.Load(); ts != locks.TSAbandoned {
				t.Fatalf("expired reader's node in TState %d, want TSAbandoned", ts)
			}
			if l.readers.Load() != old {
				t.Fatal("the tombstone is not on the reader stack")
			}

			me := plain.Node(0)
			done := make(chan struct{})
			go func() {
				l.RLock(plain)
				close(done)
			}()
			for l.readers.Load() != me {
				runtime.Gosched()
			}
			if me.Next.Load() != old {
				t.Fatal("the waiting reader's node does not link to the tombstone")
			}
			l.Unlock(w)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("the writer's Unlock did not admit the waiting reader")
			}
			if old.Spin.Load() != nil {
				t.Fatal("the release granted the tombstone")
			}
			if l.readers.Load() != nil {
				t.Fatal("reader stack not empty after the release")
			}
			l.RUnlock(plain)
			if n := l.ReaderCount(); n != 0 {
				t.Fatalf("ReaderCount = %d after the read hold ended, want 0", n)
			}
		})
	}
}

// TestLateReaderGrantsItself pins the reader's post-push recheck. A
// release that lowered the writer flag before a turned-away reader
// pushed its node found the stack empty and woke nobody, so the reader
// must see the lowered flag after its push and grant the stack itself,
// or it waits for a release that never comes. The interleaving is built
// by hand: the push lands on a lock no writer holds.
func TestLateReaderGrantsItself(t *testing.T) {
	l := New(locks.NewMCS(), 2)
	me := locks.NewThread(0, 0).Node(0)
	l.push(me)
	if !me.Ready() {
		t.Fatal("a reader that pushed onto an admittable lock was not granted")
	}
	if l.readers.Load() != nil {
		t.Fatal("reader stack not empty after the reader granted it")
	}
}

// TestNeutralMode checks the mode option: neutral readers ignore
// gate-waiting writers (only an active writer blocks them).
func TestNeutralMode(t *testing.T) {
	l := New(locks.NewStd(), 2, Neutral())
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

	wp := New(locks.NewStd(), 2)
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
	l := New(gate, 2)
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
