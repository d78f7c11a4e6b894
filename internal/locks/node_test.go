package locks

import (
	"testing"
	"unsafe"
)

// TestNodeIsExactlyOneCacheLine: a queue node must fill exactly one
// 64-byte cache line (the paper's cna_node_t with padding) — neither
// straddling two lines nor leaving a tail that a neighbouring node's hot
// fields could share.
func TestNodeIsExactlyOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 64 {
		t.Fatalf("Node is %d bytes, want exactly 64", got)
	}
}

// TestThreadOwnsItsNodes: NewThread gives every nesting depth its own
// node, each with its grant predicate built, and each starting a cache
// line of its own.
func TestThreadOwnsItsNodes(t *testing.T) {
	th := NewThread(3, 1)
	seen := map[*Node]bool{}
	for d := 0; d < MaxNesting; d++ {
		n := th.Node(d)
		if n == nil || seen[n] {
			t.Fatalf("depth %d: node %p missing or shared", d, n)
		}
		seen[n] = true
		if addr := uintptr(unsafe.Pointer(n)); addr%64 != 0 {
			t.Errorf("depth %d: node at %#x, not line-aligned", d, addr)
		}
		if n.Ready == nil || n.Ready() {
			t.Errorf("depth %d: grant predicate missing or already true", d)
		}
		n.Spin.Store(n)
		if !n.Ready() {
			t.Errorf("depth %d: grant predicate ignores the spin word", d)
		}
	}
}

// TestExpireSwapsTheTombstone: a timed waiter that wins the abandon race
// leaves its node behind and takes a fresh one for that depth, so the
// thread's next acquisition at the depth — of any lock — never waits
// for the tombstone. A waiter that loses the race keeps its node.
func TestExpireSwapsTheTombstone(t *testing.T) {
	th := NewThread(0, 0)
	th.AcquireSlot()
	n := th.Node(th.AcquireSlot())
	n.TState.Store(TSArmed)
	if th.Expire(n) {
		t.Fatal("Expire reported a grant on an armed, ungranted node")
	}
	if d := th.Depth(); d != 1 {
		t.Fatalf("abandon left depth %d, want 1", d)
	}
	fresh := th.Node(1)
	if fresh == n || fresh.TState.Load() != TSClean || fresh.Ready == nil {
		t.Fatal("abandon did not install a fresh, clean node for the depth")
	}
	if n.TState.Load() != TSAbandoned {
		t.Fatal("the tombstone is not marked abandoned")
	}

	// Lost race: the releaser committed first and stored the grant.
	g := th.Node(th.AcquireSlot())
	g.TState.Store(TSGranted)
	g.Spin.Store(granted)
	if !th.Expire(g) {
		t.Fatal("Expire refused an at-the-buzzer grant")
	}
	if th.Node(1) != g || th.Depth() != 2 {
		t.Fatal("a granted waiter lost its node or its depth")
	}
}
