package qspin

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/numa"
)

// TestLockIsFourBytes checks the headline constraint: the Linux kernel
// "strictly limits the size of its spin lock to 4 bytes", and CNA fits.
func TestLockIsFourBytes(t *testing.T) {
	if got := unsafe.Sizeof(SpinLock{}); got != 4 {
		t.Fatalf("SpinLock is %d bytes, want 4", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := NewDomain(numa.TwoSocketXeonE5(), PolicyStock)
	d.EnableStats()
	for cpu := 0; cpu < d.NumCPUs(); cpu++ {
		for idx := 0; idx < maxNesting; idx++ {
			enc := encode(cpu, idx)
			if enc < 4 {
				t.Fatalf("encoding %d for cpu=%d idx=%d collides with status values", enc, cpu, idx)
			}
			if got := d.decode(enc); got != &d.nodes[cpu][idx] {
				t.Fatalf("decode(encode(%d,%d)) wrong node", cpu, idx)
			}
		}
	}
}

func TestEncodeUniqueProperty(t *testing.T) {
	f := func(a, b uint8, i, j uint8) bool {
		cpuA, cpuB := int(a)%144, int(b)%144
		idxA, idxB := int(i)%4, int(j)%4
		if cpuA == cpuB && idxA == idxB {
			return true
		}
		return encode(cpuA, idxA) != encode(cpuB, idxB)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFastPath(t *testing.T) {
	d := NewDomain(numa.TwoSocketXeonE5(), PolicyStock)
	d.EnableStats()
	var l SpinLock
	d.Lock(&l, 0)
	if !l.IsLocked() {
		t.Fatal("lock word not set")
	}
	l.Unlock()
	if l.Value() != 0 {
		t.Fatalf("lock word %#x after unlock, want 0", l.Value())
	}
	if d.stats.FastPath.Load() != 1 {
		t.Fatalf("fast path count = %d, want 1", d.stats.FastPath.Load())
	}
}

func TestTryLock(t *testing.T) {
	var l SpinLock
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after unlock failed")
	}
	l.Unlock()
}

func TestPendingPath(t *testing.T) {
	d := NewDomain(numa.TwoSocketXeonE5(), PolicyStock)
	d.EnableStats()
	var l SpinLock
	d.Lock(&l, 0)
	done := make(chan struct{})
	go func() {
		d.Lock(&l, 1) // must take the pending path: lock held, no tail
		l.Unlock()
		close(done)
	}()
	// Wait for the pending bit to appear, then release.
	for l.Value()&pendingBit == 0 {
	}
	l.Unlock()
	<-done
	if d.stats.PendingPath.Load() != 1 {
		t.Fatalf("pending path count = %d, want 1", d.stats.PendingPath.Load())
	}
	if l.Value() != 0 {
		t.Fatalf("lock word %#x at quiescence", l.Value())
	}
}

func hammer(t *testing.T, policy Policy, topo numa.Topology, cpus, iters int) *Domain {
	t.Helper()
	d := NewDomain(topo, policy)
	d.EnableStats()
	var l SpinLock
	var counter int
	var wg sync.WaitGroup
	for c := 0; c < cpus; c++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				d.Lock(&l, cpu)
				counter++
				l.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if counter != cpus*iters {
		t.Fatalf("%v: counter = %d, want %d", policy, counter, cpus*iters)
	}
	if l.Value() != 0 {
		t.Fatalf("%v: lock word %#x at quiescence, want 0", policy, l.Value())
	}
	return d
}

func TestMutualExclusionStock(t *testing.T) {
	hammer(t, PolicyStock, numa.TwoSocketXeonE5(), 8, 300)
}

func TestMutualExclusionCNA(t *testing.T) {
	hammer(t, PolicyCNA, numa.TwoSocketXeonE5(), 8, 300)
}

func TestMutualExclusionCNAFourSocket(t *testing.T) {
	hammer(t, PolicyCNA, numa.FourSocketXeonE7(), 8, 200)
}

func TestSlowPathExercised(t *testing.T) {
	// Yield inside the critical section so waiters pile up behind the
	// holder (on a single-core host contention windows are otherwise too
	// narrow to reach the queue).
	d := NewDomain(numa.TwoSocketXeonE5(), PolicyCNA)
	d.EnableStats()
	var l SpinLock
	var counter int
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.Lock(&l, cpu)
				counter++
				runtime.Gosched()
				runtime.Gosched()
				l.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if counter != 1600 {
		t.Fatalf("counter = %d, want 1600", counter)
	}
	if d.stats.SlowPath.Load() == 0 {
		t.Error("8-way contention never reached the queue slow path")
	}
}

func TestNestedLocks(t *testing.T) {
	for _, policy := range []Policy{PolicyStock, PolicyCNA} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			d := NewDomain(numa.TwoSocketXeonE5(), policy)
			d.EnableStats()
			var a, b SpinLock
			var counter int
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(cpu int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						d.Lock(&a, cpu)
						d.Lock(&b, cpu)
						counter++
						b.Unlock()
						a.Unlock()
					}
				}(c)
			}
			wg.Wait()
			if counter != 800 {
				t.Fatalf("counter = %d, want 800", counter)
			}
		})
	}
}

func TestManyLocksShareDomain(t *testing.T) {
	// The kernel has one per-CPU node array for millions of spinlocks; a
	// Domain works the same way.
	d := NewDomain(numa.TwoSocketXeonE5(), PolicyCNA)
	d.EnableStats()
	ls := make([]SpinLock, 256)
	var wg sync.WaitGroup
	counters := make([]int, len(ls))
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				idx := (i*31 + cpu*7) % len(ls)
				d.Lock(&ls[idx], cpu)
				counters[idx]++
				ls[idx].Unlock()
			}
		}(c)
	}
	wg.Wait()
	total := 0
	for i := range ls {
		total += counters[i]
		if ls[i].Value() != 0 {
			t.Fatalf("lock %d word %#x at quiescence", i, ls[i].Value())
		}
	}
	if total != 8000 {
		t.Fatalf("total = %d, want 8000", total)
	}
}

func TestCNAFairnessMaskZeroKeepsFIFO(t *testing.T) {
	d := NewDomain(numa.TwoSocketXeonE5(), PolicyCNA)
	d.EnableStats()
	d.SetKeepLocalMask(0)
	var l SpinLock
	var counter int
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.Lock(&l, cpu)
				counter++
				l.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if counter != 1200 {
		t.Fatalf("counter = %d", counter)
	}
	if d.stats.SecondaryMoves.Load() != 0 {
		t.Fatalf("mask 0 moved %d nodes to the secondary queue", d.stats.SecondaryMoves.Load())
	}
}

// TestCNALocalityBeatsStock builds one queue deterministically and
// checks the order each policy runs it in and how it counts the
// handovers. cpu 0 holds the lock and cpu 1 takes the pending bit, so
// cpus 2 (socket 0), 3 (socket 1) and 4 (socket 0) queue in that
// order, each seen in the lock word and linked before the next starts.
// Stock grants FIFO: two remote promotions. CNA's queue head (cpu 2)
// skips remote cpu 3 for local cpu 4, whose exit flushes cpu 3 back
// from the secondary queue: one local promotion and one remote.
func TestCNALocalityBeatsStock(t *testing.T) {
	cases := []struct {
		policy        Policy
		order         []int
		local, remote uint64
	}{
		{PolicyStock, []int{0, 1, 2, 3, 4}, 0, 2},
		{PolicyCNA, []int{0, 1, 2, 4, 3}, 1, 1},
	}
	for _, c := range cases {
		t.Run(c.policy.String(), func(t *testing.T) {
			d := NewDomain(numa.TwoSocketXeonE5(), c.policy)
			d.EnableStats()
			var l SpinLock
			var order []int // appended under l
			var wg sync.WaitGroup
			start := func(cpu int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					d.Lock(&l, cpu)
					order = append(order, cpu)
					l.Unlock()
				}()
			}
			tail := func(cpu int) bool { return l.Value()>>tailShift == encode(cpu, 0) }
			linked := func(prev, cpu int) bool {
				return d.nodes[prev][0].next.Load() == &d.nodes[cpu][0]
			}

			d.Lock(&l, 0)
			start(1)
			waitFor(t, "cpu 1 on the pending bit", func() bool { return l.Value()&pendingBit != 0 })
			start(2)
			waitFor(t, "cpu 2 at the queue tail", func() bool { return tail(2) })
			for cpu := 3; cpu <= 4; cpu++ {
				start(cpu)
				waitFor(t, fmt.Sprintf("cpu %d queued behind cpu %d", cpu, cpu-1),
					func() bool { return tail(cpu) && linked(cpu-1, cpu) })
			}
			order = append(order, 0)
			l.Unlock()
			wg.Wait()

			if !slices.Equal(order, c.order) {
				t.Errorf("ran in order %v, want %v", order, c.order)
			}
			st := d.Stats()
			if got, want := st.LocalHandover.Load(), c.local; got != want {
				t.Errorf("%d local handovers, want %d", got, want)
			}
			if got, want := st.RemoteHandover.Load(), c.remote; got != want {
				t.Errorf("%d remote handovers, want %d", got, want)
			}
			if l.Value() != 0 {
				t.Errorf("lock word %#x at quiescence, want 0", l.Value())
			}
		})
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestNestingOverflowPanics(t *testing.T) {
	d := NewDomain(numa.TwoSocketXeonE5(), PolicyStock)
	d.EnableStats()
	ls := make([]SpinLock, maxNesting+1)
	// Force every acquisition onto the queue path by pre-setting tails is
	// complex; instead simulate the nesting counter directly.
	d.count[0] = maxNesting
	defer func() {
		if recover() == nil {
			t.Fatal("nesting overflow did not panic")
		}
	}()
	d.queue(&ls[0], 0)
}

func TestPolicyString(t *testing.T) {
	if PolicyStock.String() != "stock" || PolicyCNA.String() != "CNA" {
		t.Error("policy names wrong")
	}
}

// Property: random interleavings over random CPU subsets keep the counter
// intact under both policies.
func TestQSpinProperty(t *testing.T) {
	f := func(nCPU, nIters uint8, cnaPolicy bool) bool {
		cpus := int(nCPU)%5 + 2
		iters := int(nIters)%40 + 1
		policy := PolicyStock
		if cnaPolicy {
			policy = PolicyCNA
		}
		d := NewDomain(numa.TwoSocketXeonE5(), policy)
		d.EnableStats()
		var l SpinLock
		var counter int
		var wg sync.WaitGroup
		for c := 0; c < cpus; c++ {
			wg.Add(1)
			go func(cpu int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					d.Lock(&l, cpu)
					counter++
					l.Unlock()
				}
			}(c)
		}
		wg.Wait()
		return counter == cpus*iters && l.Value() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func BenchmarkQSpinUncontendedStock(b *testing.B) {
	d := NewDomain(numa.TwoSocketXeonE5(), PolicyStock)
	d.EnableStats()
	var l SpinLock
	for i := 0; i < b.N; i++ {
		d.Lock(&l, 0)
		l.Unlock()
	}
}

func BenchmarkQSpinUncontendedCNA(b *testing.B) {
	d := NewDomain(numa.TwoSocketXeonE5(), PolicyCNA)
	d.EnableStats()
	var l SpinLock
	for i := 0; i < b.N; i++ {
		d.Lock(&l, 0)
		l.Unlock()
	}
}
