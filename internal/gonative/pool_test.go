package gonative

// White-box tests of the slot pool's contract: the stack hint spreads
// neighbouring goroutines over the slots, a goroutine reclaims the slot
// it released with its construction-time socket, a full pool fails a
// claim cleanly after probing every slot (wrapping around), and each
// slot owns whole cache lines holding its Thread and PRNG state, its
// Thread's queue node on a line pair of its own.

import (
	"testing"
	"unsafe"

	"repro/internal/locks"
	"repro/internal/numa"
)

// pinHint replaces the stack hint with a settable value for the
// duration of the test.
func pinHint(t *testing.T) *uint32 {
	t.Helper()
	orig := hint
	t.Cleanup(func() { hint = orig })
	h := new(uint32)
	hint = func() uint32 { return *h }
	return h
}

// TestHintSpreadsAdjacentStacks: goroutine stacks sit back to back at a
// 2 KB (fresh) or 8 KB (grown) stride, so a hint built from low address
// bits can put every goroutine on the same start slot. Over many
// synthetic stack bases, two neighbouring stacks must never start at
// the same slot of a DefaultCapacity-sized pool on two CPUs, and eight
// neighbours must start on at least half the slots.
func TestHintSpreadsAdjacentStacks(t *testing.T) {
	const slots = 8
	for _, stride := range []uintptr{2 << 10, 8 << 10} {
		for b := 0; b < 1024; b++ {
			base := 0xc000000000 + uintptr(b)*stride + 0x5e8 // a probe's offset inside its stack
			seen := make(map[int]bool)
			prev := -1
			for k := 0; k < slots; k++ {
				s := start(hashStack(base+uintptr(k)*stride), slots)
				if s == prev {
					t.Fatalf("stride %d: stacks %#x and %#x both start at slot %d", stride, base+uintptr(k-1)*stride, base+uintptr(k)*stride, s)
				}
				prev = s
				seen[s] = true
			}
			if len(seen) < slots/2 {
				t.Fatalf("stride %d, base %#x: %d neighbouring stacks cover only %d of %d slots", stride, base, slots, len(seen), slots)
			}
		}
	}
}

// TestReclaimOwnSlot: a goroutine that releases its slot gets that very
// slot back on its next claim (its queue-node lines still hot), and the
// slot keeps the socket it was built with, within the topology.
func TestReclaimOwnSlot(t *testing.T) {
	topo := numa.TwoSocketXeonE5()
	p := NewPool(8, topo)
	claim := func() *locks.Thread { return p.tryClaim() } // one call depth, one hint
	for i := 0; i < 3; i++ {
		th := claim()
		if th == nil {
			t.Fatal("tryClaim failed on a free pool")
		}
		socket := th.Socket
		if socket < 0 || socket >= topo.Sockets {
			t.Fatalf("slot %d on socket %d, outside [0, %d)", th.ID, socket, topo.Sockets)
		}
		p.release(th)
		again := claim()
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
	*h = ^uint32(0) // start at slot n-1
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
