package simlocks

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/numa"
)

// Factories under test.
func factories() []Factory {
	return []Factory{
		{Name: "MCS", New: func(s *memsim.Sim, n int) Mutex { return NewMCS(s, n) }},
		{Name: "CNA", New: func(s *memsim.Sim, n int) Mutex { return NewCNA(s, n, DefaultCNAOptions()) }},
		{Name: "CNA-opt", New: func(s *memsim.Sim, n int) Mutex { return NewCNA(s, n, OptCNAOptions()) }},
		{Name: "BO-TAS", New: func(s *memsim.Sim, n int) Mutex { return NewBackoffTAS(s, 64, 2048) }},
		{Name: "C-BO-MCS", New: func(s *memsim.Sim, n int) Mutex { return NewCBOMCS(s, s.Topology().Sockets, n, 64) }},
		{Name: "HMCS", New: func(s *memsim.Sim, n int) Mutex { return NewHMCS(s, s.Topology().Sockets, n, 64) }},
		{Name: "qspin-stock", New: func(s *memsim.Sim, n int) Mutex { return NewQSpin(s, n, false) }},
		{Name: "qspin-CNA", New: func(s *memsim.Sim, n int) Mutex { return NewQSpin(s, n, true) }},
	}
}

// runContended spawns `threads` simulated threads doing `iters` lock-
// protected critical sections and verifies mutual exclusion in virtual
// time via a holder variable. It returns total simulated ops and the
// simulation makespan.
func runContended(t *testing.T, mk func(*memsim.Sim, int) Mutex, topo numa.Topology, threads, iters int, csWork uint64) (uint64, uint64) {
	t.Helper()
	s := memsim.New(topo, memsim.DefaultCosts2S())
	lock := mk(s, threads)
	holder := -1
	var ops uint64
	violation := false
	for w := 0; w < threads; w++ {
		s.Spawn(w, func(th *memsim.T) {
			for i := 0; i < iters; i++ {
				lock.Lock(th)
				if holder != -1 {
					violation = true
				}
				holder = th.ID()
				if csWork > 0 {
					th.Work(csWork)
				}
				holder = -1
				ops++
				lock.Unlock(th)
			}
		})
	}
	s.Run()
	if violation {
		t.Fatalf("%s: two threads inside the critical section simultaneously", lock.Name())
	}
	if ops != uint64(threads*iters) {
		t.Fatalf("%s: ops = %d, want %d", lock.Name(), ops, threads*iters)
	}
	return ops, s.Clock()
}

func TestMutualExclusionAllLocks(t *testing.T) {
	topo := numa.TwoSocketXeonE5()
	for _, f := range factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			runContended(t, f.New, topo, 8, 50, 150)
		})
	}
}

func TestMutualExclusionFourSockets(t *testing.T) {
	topo := numa.FourSocketXeonE7()
	for _, f := range factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			runContended(t, f.New, topo, 12, 30, 150)
		})
	}
}

func TestSingleThreadAllLocks(t *testing.T) {
	topo := numa.TwoSocketXeonE5()
	for _, f := range factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			runContended(t, f.New, topo, 1, 100, 50)
		})
	}
}

func TestDeterministicMakespan(t *testing.T) {
	topo := numa.TwoSocketXeonE5()
	for _, f := range factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			_, c1 := runContended(t, f.New, topo, 6, 40, 100)
			_, c2 := runContended(t, f.New, topo, 6, 40, 100)
			if c1 != c2 {
				t.Fatalf("makespan differs across identical runs: %d vs %d", c1, c2)
			}
		})
	}
}

// TestCNABeatsMCSUnderContention is the paper's headline claim at
// miniature scale: with many threads across two sockets hammering one
// lock, CNA finishes the same work in less virtual time than MCS.
func TestCNABeatsMCSUnderContention(t *testing.T) {
	topo := numa.TwoSocketXeonE5()
	const threads, iters, cs = 16, 60, 200
	_, mcsTime := runContended(t, func(s *memsim.Sim, n int) Mutex { return NewMCS(s, n) }, topo, threads, iters, cs)
	_, cnaTime := runContended(t, func(s *memsim.Sim, n int) Mutex { return NewCNA(s, n, DefaultCNAOptions()) }, topo, threads, iters, cs)
	if cnaTime >= mcsTime {
		t.Errorf("CNA makespan %d not below MCS %d under contention", cnaTime, mcsTime)
	}
}

// TestCNAMatchesMCSSingleThread: at one thread the two locks must be
// within a whisker of each other (the paper: "CNA does not introduce any
// overhead in single-thread runs over the MCS lock").
func TestCNAMatchesMCSSingleThread(t *testing.T) {
	topo := numa.TwoSocketXeonE5()
	_, mcsTime := runContended(t, func(s *memsim.Sim, n int) Mutex { return NewMCS(s, n) }, topo, 1, 200, 100)
	_, cnaTime := runContended(t, func(s *memsim.Sim, n int) Mutex { return NewCNA(s, n, DefaultCNAOptions()) }, topo, 1, 200, 100)
	ratio := float64(cnaTime) / float64(mcsTime)
	if ratio > 1.05 || ratio < 0.95 {
		t.Errorf("single-thread CNA/MCS time ratio %.3f, want ~1.0", ratio)
	}
}

// TestCNAReducesLLCMisses mirrors Figure 7: under contention CNA must
// generate fewer LLC misses than MCS for the same op count.
func TestCNAReducesLLCMisses(t *testing.T) {
	topo := numa.TwoSocketXeonE5()
	run := func(mk func(*memsim.Sim, int) Mutex) uint64 {
		s := memsim.New(topo, memsim.DefaultCosts2S())
		lock := mk(s, 16)
		for w := 0; w < 16; w++ {
			s.Spawn(w, func(th *memsim.T) {
				for i := 0; i < 60; i++ {
					lock.Lock(th)
					th.Work(200)
					lock.Unlock(th)
				}
			})
		}
		s.Run()
		return s.LLC().TotalMisses()
	}
	mcsMisses := run(func(s *memsim.Sim, n int) Mutex { return NewMCS(s, n) })
	cnaMisses := run(func(s *memsim.Sim, n int) Mutex { return NewCNA(s, n, DefaultCNAOptions()) })
	if cnaMisses >= mcsMisses {
		t.Errorf("CNA misses %d not below MCS %d", cnaMisses, mcsMisses)
	}
}

// TestQSpinFastPathCheap: an uncontended simulated qspinlock acquisition
// is a single atomic (CAS) — the kernel fast path.
func TestQSpinFastPathCheap(t *testing.T) {
	s := memsim.New(numa.TwoSocketXeonE5(), memsim.DefaultCosts2S())
	l := NewQSpin(s, 1, true)
	var lockCost uint64
	s.Spawn(0, func(th *memsim.T) {
		th.Load(l.val) // warm the line
		before := th.Now()
		l.Lock(th)
		lockCost = th.Now() - before
		l.Unlock(th)
	})
	s.Run()
	c := memsim.DefaultCosts2S()
	want := c.LocalHit + c.AtomicExtra
	if lockCost != want {
		t.Errorf("warm fast-path cost = %d, want %d (one atomic)", lockCost, want)
	}
}

// TestQSpinWordConsistency: after any run the lock word must be zero.
func TestQSpinWordConsistency(t *testing.T) {
	for _, cna := range []bool{false, true} {
		s := memsim.New(numa.TwoSocketXeonE5(), memsim.DefaultCosts2S())
		l := NewQSpin(s, 10, cna)
		for w := 0; w < 10; w++ {
			s.Spawn(w, func(th *memsim.T) {
				for i := 0; i < 40; i++ {
					l.Lock(th)
					th.Work(120)
					l.Unlock(th)
				}
			})
		}
		s.Run()
		if l.val.Value() != 0 {
			t.Errorf("cna=%v: lock word %#x at quiescence, want 0", cna, l.val.Value())
		}
	}
}

// TestHierarchicalLocksKeepLockLocal: C-BO-MCS and HMCS, like CNA, must
// beat MCS's makespan under cross-socket contention.
func TestHierarchicalLocksKeepLockLocal(t *testing.T) {
	topo := numa.TwoSocketXeonE5()
	const threads, iters, cs = 16, 60, 200
	_, mcsTime := runContended(t, func(s *memsim.Sim, n int) Mutex { return NewMCS(s, n) }, topo, threads, iters, cs)
	for _, f := range []Factory{
		{Name: "C-BO-MCS", New: func(s *memsim.Sim, n int) Mutex { return NewCBOMCS(s, 2, n, 64) }},
		{Name: "HMCS", New: func(s *memsim.Sim, n int) Mutex { return NewHMCS(s, 2, n, 64) }},
	} {
		_, hTime := runContended(t, f.New, topo, threads, iters, cs)
		if hTime >= mcsTime {
			t.Errorf("%s makespan %d not below MCS %d", f.Name, hTime, mcsTime)
		}
	}
}
