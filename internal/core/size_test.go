package core

import (
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/locks"
)

// TestSharedStateIsOneWord pins the paper's central claim: the CNA
// lock's shared state — the memory other threads' lock/unlock hot paths
// touch — is a single word (the queue-tail pointer), regardless of the
// socket count. The remaining Lock fields are holder-private
// configuration/statistics, and the queue nodes are the threads' own.
func TestSharedStateIsOneWord(t *testing.T) {
	var l Lock
	if got := unsafe.Sizeof(l.q); got != unsafe.Sizeof(uintptr(0)) {
		t.Fatalf("tail word is %d bytes, want pointer-sized (%d)",
			got, unsafe.Sizeof(uintptr(0)))
	}
}

// TestTailIsolatedFromHolderFields: arriving threads Swap the tail word
// continuously; every mutable holder-side field (options are read-only
// after construction, but the stats pointer target and the fields
// behind it are written by the holder) must live on a different cache
// line, or contended arrivals would invalidate the holder's line on
// every enqueue.
func TestTailIsolatedFromHolderFields(t *testing.T) {
	const line = 64
	var l Lock
	if off := unsafe.Offsetof(l.q); off != 0 {
		t.Fatalf("tail at offset %d, want 0", off)
	}
	for name, off := range map[string]uintptr{
		"opts":           unsafe.Offsetof(l.opts),
		"stats":          unsafe.Offsetof(l.stats),
		"forceKeepLocal": unsafe.Offsetof(l.forceKeepLocal),
	} {
		if off < line {
			t.Errorf("%s at offset %d shares the tail's cache line (first %d bytes)",
				name, off, line)
		}
	}
}

// TestClearNextLayoutAssumption: ClearNext bypasses the atomic store by
// writing the pointer word directly, which is sound only while
// atomic.Pointer is exactly one pointer word with no header. Pin that
// layout, and the plain-write/atomic-read agreement, so a stdlib change
// fails loudly here instead of corrupting queues.
func TestClearNextLayoutAssumption(t *testing.T) {
	if got := unsafe.Sizeof(atomic.Pointer[locks.Node]{}); got != unsafe.Sizeof(unsafe.Pointer(nil)) {
		t.Fatalf("atomic.Pointer[locks.Node] is %d bytes, want pointer-sized", got)
	}
	var n, other locks.Node
	n.Next.Store(&other)
	n.ClearNext()
	if got := n.Next.Load(); got != nil {
		t.Fatalf("after ClearNext, next = %p, want nil", got)
	}
}

// TestNewAllocatesOnlyTheLock: a CNA lock is one allocation, the Lock
// struct itself, and no node storage of any size — the queue nodes are
// the threads' own.
func TestNewAllocatesOnlyTheLock(t *testing.T) {
	var sink *Lock
	for _, opts := range []Options{DefaultOptions(), OptimizedOptions(), {KeepLocalMask: 0xff, FairnessCountdown: true}} {
		if n := testing.AllocsPerRun(100, func() { sink = NewWithOptions(opts) }); n != 1 {
			t.Errorf("NewWithOptions(%+v) made %v allocations, want 1", opts, n)
		}
	}
	_ = sink
}
