package gonative

// White-box tests of the slot pool's contract: P k starts its claims at
// slot k (modulo the capacity), which sits on the socket whose read
// stripe P k's anonymous read holds take; goroutines running at once
// get different hints; a goroutine reclaims the slot it released with
// its construction-time socket; a full pool fails a claim cleanly after
// probing every slot (wrapping around); and each slot owns whole cache
// lines holding its Thread and PRNG state, its Thread's queue node on a
// line pair of its own.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/numa"
)

// pinHint replaces the P hint with a settable value for the duration
// of the test.
func pinHint(t *testing.T) *int {
	t.Helper()
	orig := hint
	t.Cleanup(func() { hint = orig })
	h := new(int)
	hint = func() int { return *h }
	return h
}

// TestHintMapsPToSlotAndStripe: P k starts its claims at slot k mod n,
// so distinct Ps below the capacity never start at one slot, and slot k
// sits on socket k mod sockets. That socket is also the read-indicator
// stripe rw.Lock wraps P k's anonymous read holds onto (one stripe per
// socket), so on one P a goroutine's anonymous holds and the Thread its
// waiting reads borrow use the same stripe.
func TestHintMapsPToSlotAndStripe(t *testing.T) {
	for _, topo := range []numa.Topology{numa.TwoSocketXeonE5(), numa.FourSocketXeonE7()} {
		for _, n := range []int{1, 3, 4, 8, 100} {
			p := NewPool(n, topo)
			for k := 0; k < 2*n; k++ {
				if got := start(k, n); got != k%n {
					t.Fatalf("%d slots: P %d starts at slot %d, want %d", n, k, got, k%n)
				}
			}
			for k, sl := range p.slots {
				if want := k % topo.Sockets; sl.th.Socket != want {
					t.Fatalf("%s, %d slots: slot %d on socket %d, want P %d's stripe %d",
						topo.Name, n, k, sl.th.Socket, k, want)
				}
			}
		}
	}
}

// TestConcurrentHintsDiffer: while goroutine A holds its P pinned,
// goroutine B must run on another P, so B's hint differs from A's and
// starts at another slot of a DefaultCapacity pool; any per-goroutine
// value, such as a hash of the stack address, would agree modulo two
// stripes for about half of all such pairs. A pinned goroutine cannot
// be stopped for a stop-the-world, so A waits a bounded number of spins
// for B's sample and the attempt is retried when B missed it.
func TestConcurrentHintsDiffer(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two Ps to run two goroutines at once")
	}
	const (
		pinned int32 = iota + 1
		sampled
		gaveUp
	)
	n := DefaultCapacity()
	for range 1000 {
		var state atomic.Int32
		var pa int
		done := make(chan struct{})
		go func() {
			defer close(done)
			pa = procPin()
			state.Store(pinned)
			for i := 0; i < 1<<22 && state.Load() == pinned; i++ {
			}
			state.CompareAndSwap(pinned, gaveUp)
			procUnpin()
		}()
		for state.Load() == 0 {
			runtime.Gosched()
		}
		pb := hint()
		ok := state.CompareAndSwap(pinned, sampled)
		<-done
		if !ok {
			continue // A stopped waiting before B sampled: retry
		}
		if pb == pa {
			t.Fatalf("hint %d while another goroutine held P %d", pb, pa)
		}
		if sa, sb := start(pa, n), start(pb, n); sa == sb {
			t.Fatalf("Ps %d and %d both start at slot %d of %d", pa, pb, sa, n)
		}
		return
	}
	t.Fatal("no hint was sampled while another goroutine held its P in 1000 attempts")
}

// TestReclaimOwnSlot: a claim on a free pool takes the hinted slot, a
// claim from the same P after a release gets that very slot back (its
// queue-node lines still hot in that CPU's cache), and the slot keeps
// the socket it was built with, within the topology. The hint is pinned
// because a goroutine may change P between two claims.
func TestReclaimOwnSlot(t *testing.T) {
	h := pinHint(t)
	topo := numa.TwoSocketXeonE5()
	p := NewPool(8, topo)
	for i := 0; i < 3; i++ {
		*h = 3 * i
		th := p.tryClaim()
		if th == nil {
			t.Fatal("tryClaim failed on a free pool")
		}
		if th.ID != *h {
			t.Fatalf("claim hinted at slot %d on a free pool got slot %d", *h, th.ID)
		}
		socket := th.Socket
		if socket < 0 || socket >= topo.Sockets {
			t.Fatalf("slot %d on socket %d, outside [0, %d)", th.ID, socket, topo.Sockets)
		}
		p.release(th)
		again := p.tryClaim()
		if again != th {
			t.Fatalf("reclaim got slot %d, want the just-released %d", again.ID, th.ID)
		}
		if again.Socket != socket {
			t.Fatalf("reclaimed slot moved from socket %d to %d", socket, again.Socket)
		}
		p.release(again)
	}
	if free := p.Free(); free != p.Capacity() {
		t.Fatalf("%d of %d slots free after releasing every claim", free, p.Capacity())
	}
}

// TestFullPoolProbesWrapAround: a claim hinted at the last slot probes
// past the end back to slot 0, a full pool returns nil, and a slot
// freed anywhere is found from any hint.
func TestFullPoolProbesWrapAround(t *testing.T) {
	h := pinHint(t)
	const n = 4
	p := NewPool(n, numa.TwoSocketXeonE5())
	*h = n - 1
	for k := 0; k < n; k++ {
		th := p.tryClaim()
		if th == nil {
			t.Fatalf("claim %d failed with %d slots free", k, p.Free())
		}
		if want := (n - 1 + k) % n; th.ID != want {
			t.Fatalf("claim %d got slot %d, want %d (linear probe from the hinted slot, wrapping)", k, th.ID, want)
		}
	}
	if th := p.tryClaim(); th != nil {
		t.Fatalf("full pool handed out slot %d", th.ID)
	}
	if free := p.Free(); free != 0 {
		t.Fatalf("full pool reports %d free slots", free)
	}
	p.release(&p.slots[1].th)
	if th := p.tryClaim(); th == nil || th.ID != 1 {
		t.Fatal("claim after releasing slot 1 did not find it by wrapping around")
	}
}

// TestSlotLayout: every slot fills whole 64-byte cache lines starting
// on a line boundary, and its Thread's RNG is the PRNG state embedded
// in that same slot — so no slot's busy word, nesting counter or PRNG
// writes land on a line another slot uses. The Thread's one queue node
// (depth 0) starts a 128-byte line pair that holds no busy word and no
// slot's fields.
func TestSlotLayout(t *testing.T) {
	const line, pair = 64, 128
	size := unsafe.Sizeof(slot{})
	if size%line != 0 {
		t.Fatalf("slot is %d bytes, want a multiple of %d", size, line)
	}
	if size := unsafe.Sizeof(slotNode{}); size != pair {
		t.Fatalf("slotNode is %d bytes, want one %d-byte line pair", size, pair)
	}
	for _, capacity := range []int{1, 3, 8, 100} {
		p := NewPool(capacity, numa.TwoSocketXeonE5())
		for i, sl := range p.slots {
			if addr := uintptr(unsafe.Pointer(sl)); addr%line != 0 {
				t.Fatalf("capacity %d: slot %d at %#x, not line-aligned", capacity, i, addr)
			}
			if sl.th.ID != i {
				t.Fatalf("slot %d holds thread %d", i, sl.th.ID)
			}
			if sl.th.RNG != &sl.rng {
				t.Fatalf("slot %d's thread draws from a PRNG outside the slot", i)
			}
			n := uintptr(unsafe.Pointer(sl.th.Node(0)))
			if n%pair != 0 {
				t.Fatalf("capacity %d: slot %d's node at %#x, not at the start of a line pair", capacity, i, n)
			}
			for j, other := range p.slots {
				if lo := uintptr(unsafe.Pointer(other)); lo < n+pair && n < lo+size {
					t.Fatalf("capacity %d: slot %d's node pair overlaps slot %d", capacity, i, j)
				}
			}
		}
	}
}
