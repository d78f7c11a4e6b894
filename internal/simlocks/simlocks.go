// Package simlocks implements the paper's evaluated lock algorithms on
// top of the memsim simulated machine. Every load, store and atomic in
// these implementations is charged cache-coherence costs by the
// simulator, so running them under a workload reproduces the *mechanism*
// behind the paper's figures: queue locks that bounce ownership between
// sockets pay remote misses on every handover, NUMA-aware ones don't.
//
// The algorithms mirror the real implementations in internal/locks,
// internal/core and internal/qspin line for line, with pointers replaced
// by integer node handles (index+offset) since simulated memory holds
// 64-bit words. Cross-validation tests in this package check the two
// levels agree.
package simlocks

import (
	"repro/internal/locknames"
	"repro/internal/memsim"
)

// Mutex is a simulated lock. Thread identity comes from t.ID(), which is
// the Spawn order and must be below the size the lock was built for.
type Mutex interface {
	Lock(t *memsim.T)
	Unlock(t *memsim.T)
	Name() string
}

// Factory builds a simulated lock for a given simulator and thread count.
// Benchmarks use factories so one sweep can instantiate fresh locks per
// data point.
type Factory struct {
	Name string
	New  func(s *memsim.Sim, maxThreads int) Mutex
}

// ---- Test-and-set with exponential backoff ----

// BackoffTAS is the one-word backoff lock (the global lock of C-BO-MCS).
type BackoffTAS struct {
	state    *memsim.Word
	min, max uint64
}

// NewBackoffTAS allocates a backoff test-and-set lock with the given
// backoff window in virtual nanoseconds.
func NewBackoffTAS(s *memsim.Sim, min, max uint64) *BackoffTAS {
	return &BackoffTAS{state: s.NewWord(0), min: min, max: max}
}

// Lock implements Mutex.
func (l *BackoffTAS) Lock(t *memsim.T) {
	backoff := l.min
	for {
		if t.Load(l.state) == 0 && t.CAS(l.state, 0, 1) {
			return
		}
		// Back off for a jittered interval, then retry. The recently
		// released lock tends to be re-grabbed by whoever polls next —
		// the unfairness the paper attributes to backoff locks.
		t.Work(backoff/2 + t.RNG().Next()%(backoff/2+1))
		if backoff < l.max {
			backoff *= 2
		}
	}
}

// Unlock implements Mutex.
func (l *BackoffTAS) Unlock(t *memsim.T) { t.Store(l.state, 0) }

// Name implements Mutex.
func (l *BackoffTAS) Name() string { return locknames.BOTAS }

// ---- MCS ----

// mcsNode is an MCS queue node: two words on one line, like the 16-byte
// real node within its padded cache line.
type mcsNode struct {
	next *memsim.Word // 0 or successor handle (id+1)
	spin *memsim.Word // 0 = wait, 1 = lock passed
}

// MCS is the NUMA-oblivious queue-lock baseline.
type MCS struct {
	tail  *memsim.Word
	nodes []mcsNode
}

// NewMCS allocates an MCS lock for maxThreads simulated threads.
func NewMCS(s *memsim.Sim, maxThreads int) *MCS {
	l := &MCS{tail: s.NewWord(0), nodes: make([]mcsNode, maxThreads)}
	for i := range l.nodes {
		line := s.NewLine()
		l.nodes[i] = mcsNode{next: s.NewWordOn(line, 0), spin: s.NewWordOn(line, 0)}
	}
	return l
}

// handle encodes thread id i as a non-zero queue handle.
func handle(i int) uint64 { return uint64(i) + 1 }

// Lock implements Mutex.
func (l *MCS) Lock(t *memsim.T) {
	me := &l.nodes[t.ID()]
	t.Store(me.next, 0)
	t.Store(me.spin, 0)
	prev := t.Swap(l.tail, handle(t.ID()))
	if prev == 0 {
		return
	}
	t.Store(l.nodes[prev-1].next, handle(t.ID()))
	t.AwaitChange(me.spin, 0)
}

// Unlock implements Mutex.
func (l *MCS) Unlock(t *memsim.T) {
	me := &l.nodes[t.ID()]
	next := t.Load(me.next)
	if next == 0 {
		if t.CAS(l.tail, handle(t.ID()), 0) {
			return
		}
		next = t.AwaitChange(me.next, 0)
	}
	t.Store(l.nodes[next-1].spin, 1)
}

// Name implements Mutex.
func (l *MCS) Name() string { return locknames.MCS }
