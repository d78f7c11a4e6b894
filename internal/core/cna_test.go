package core

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/locks"
	"repro/internal/numa"
)

// enqueue replicates the lock path's enqueue step without blocking, so
// white-box tests can build queue states deterministically.
func enqueue(l *Lock, n *locks.Node, socket int32) {
	n.Next.Store(nil)
	n.Socket = -1
	n.Spin.Store(nil)
	tail := l.q.Tail.Swap(n)
	if tail == nil {
		n.Spin.Store(granted)
		return
	}
	n.Socket = socket
	tail.Next.Store(n)
}

// chain asserts the main-queue next-links follow the given sequence and
// that the last node has a nil next.
func chain(t *testing.T, label string, nodes ...*locks.Node) {
	t.Helper()
	for i := 0; i < len(nodes)-1; i++ {
		if got := nodes[i].Next.Load(); got != nodes[i+1] {
			t.Fatalf("%s: link %d broken: got %p, want %p", label, i, got, nodes[i+1])
		}
	}
	if last := nodes[len(nodes)-1].Next.Load(); last != nil {
		t.Fatalf("%s: last node's next = %p, want nil", label, last)
	}
}

// TestFigure1RunningExample replays the paper's Figure 1 step by step on
// a 2-socket machine: threads t1,t4,t5 on socket 0, t2,t3,t6,t7 on
// socket 1.
func TestFigure1RunningExample(t *testing.T) {
	l := New()
	l.EnableStats()
	l.forceKeepLocal = 1 // make keep_lock_local deterministic for the replay

	th := make([]*locks.Thread, 8)
	sockets := []int{0 /*unused*/, 0, 1, 1, 0, 0, 1, 1} // th[i] = thread t_i
	for i := 1; i <= 7; i++ {
		th[i] = locks.NewThread(i, sockets[i])
	}
	n := make([]*locks.Node, 8)
	for i := 1; i <= 7; i++ {
		n[i] = &locks.Node{}
	}

	// (a) t1 holds the lock; t2..t6 wait in the main queue.
	enqueue(l, n[1], 0) // empty queue: t1 acquires immediately
	if n[1].Spin.Load() != granted {
		t.Fatal("(a): holder's spin is not granted")
	}
	for i := 2; i <= 6; i++ {
		enqueue(l, n[i], int32(sockets[i]))
	}
	chain(t, "(a) main", n[1], n[2], n[3], n[4], n[5], n[6])

	// (b) t1 unlocks: t2,t3 (socket 1) move to the secondary queue and the
	// lock passes to t4 with the secondary head in its spin field.
	l.unlockNode(n[1], th[1])
	if got := n[4].Spin.Load(); got != n[2] {
		t.Fatalf("(b): t4.spin = %p, want secondary head t2 (%p)", got, n[2])
	}
	if got := n[2].SecTail.Load(); got != n[3] {
		t.Fatalf("(b): t2.secTail = %p, want t3 (%p)", got, n[3])
	}
	chain(t, "(b) secondary", n[2], n[3])
	chain(t, "(b) main", n[4], n[5], n[6])
	if l.q.Tail.Load() != n[6] {
		t.Fatal("(b): tail is not t6")
	}
	if n[2].Spin.Load() != nil || n[3].Spin.Load() != nil {
		t.Fatal("(b): secondary-queue threads must still be waiting")
	}

	// (c) t1 returns and re-enters the main queue.
	enqueue(l, n[1], 0)
	chain(t, "(c) main", n[4], n[5], n[6], n[1])
	if l.q.Tail.Load() != n[1] {
		t.Fatal("(c): tail is not t1")
	}

	// (d) t4 unlocks: immediate successor t5 is on socket 0, so the spin
	// value (secondary head) is simply copied to t5.
	l.unlockNode(n[4], th[4])
	if got := n[5].Spin.Load(); got != n[2] {
		t.Fatalf("(d): t5.spin = %p, want t2 (%p)", got, n[2])
	}

	// (e) t7 (socket 1) arrives and enters the main queue.
	enqueue(l, n[7], 1)
	chain(t, "(e) main", n[5], n[6], n[1], n[7])

	// (f) t5 unlocks: t6 moves to the end of the secondary queue (t2's
	// secTail updated), and the lock passes to t1.
	l.unlockNode(n[5], th[5])
	if got := n[1].Spin.Load(); got != n[2] {
		t.Fatalf("(f): t1.spin = %p, want t2 (%p)", got, n[2])
	}
	if got := n[2].SecTail.Load(); got != n[6] {
		t.Fatalf("(f): t2.secTail = %p, want t6 (%p)", got, n[6])
	}
	chain(t, "(f) secondary", n[2], n[3], n[6])

	// (g) t1 unlocks: no socket-0 waiter remains in the main queue, so the
	// secondary queue is spliced in before t7 and the lock passes to t2.
	l.unlockNode(n[1], th[1])
	if n[2].Spin.Load() != granted {
		t.Fatal("(g): t2 did not receive the lock")
	}
	chain(t, "(g) main", n[2], n[3], n[6], n[7])
	if l.q.Tail.Load() != n[7] {
		t.Fatal("(g): tail is not t7")
	}
	// The paper notes t2's secondaryTail deliberately still points at t6.
	if got := n[2].SecTail.Load(); got != n[6] {
		t.Fatalf("(g): t2.secTail = %p, want stale t6 (%p)", got, n[6])
	}

	// Drain the rest: t2, t3, t6, t7 unlock in queue order.
	l.unlockNode(n[2], th[2])
	if n[3].Spin.Load() != granted {
		t.Fatal("drain: t3 did not receive the lock")
	}
	l.unlockNode(n[3], th[3])
	if n[6].Spin.Load() != granted {
		t.Fatal("drain: t6 did not receive the lock")
	}
	l.unlockNode(n[6], th[6])
	if n[7].Spin.Load() != granted {
		t.Fatal("drain: t7 did not receive the lock")
	}
	l.unlockNode(n[7], th[7])
	if l.q.Tail.Load() != nil {
		t.Fatal("drain: lock not free after all threads unlocked")
	}

	// Statistics recorded by the scenario: (b) moved 2 nodes, (f) 1 node.
	if l.stats.SecondaryMoves != 3 {
		t.Errorf("SecondaryMoves = %d, want 3", l.stats.SecondaryMoves)
	}
	if l.stats.QueueAlterations != 2 {
		t.Errorf("QueueAlterations = %d, want 2", l.stats.QueueAlterations)
	}
	if l.stats.Flushes != 1 {
		t.Errorf("Flushes = %d, want 1", l.stats.Flushes)
	}
}

// TestSecondaryFlushViaTailCAS covers unlock's "main queue empty but
// secondary queue populated" path (Figure 4 lines 27-33).
func TestSecondaryFlushViaTailCAS(t *testing.T) {
	l := New()
	l.forceKeepLocal = 1
	t0 := locks.NewThread(0, 0)
	t1 := locks.NewThread(1, 1)
	t2 := locks.NewThread(2, 0)

	n0, n1, n2 := &locks.Node{}, &locks.Node{}, &locks.Node{}
	enqueue(l, n0, 0) // holder (socket 0)
	enqueue(l, n1, 1) // remote waiter
	enqueue(l, n2, 0) // local waiter

	// Handover to n2 moves n1 to the secondary queue.
	l.unlockNode(n0, t0)
	if n2.Spin.Load() != n1 {
		t.Fatal("n2 did not receive lock with secondary head n1")
	}
	// n2 unlocks with an empty main queue: the tail must swing to the
	// secondary tail (n1 itself) and n1 gets the lock.
	l.unlockNode(n2, t2)
	if n1.Spin.Load() != granted {
		t.Fatal("secondary head not granted the lock on flush")
	}
	if l.q.Tail.Load() != n1 {
		t.Fatalf("tail = %p, want secondary tail n1 (%p)", l.q.Tail.Load(), n1)
	}
	// Finally n1 frees the lock completely.
	l.unlockNode(n1, t1)
	if l.q.Tail.Load() != nil {
		t.Fatal("lock not free")
	}
}

// TestFairnessPathPassesToSecondary covers the keep_lock_local == 0
// branch: the holder must hand the lock to the secondary queue even
// though a same-socket waiter exists.
func TestFairnessPathPassesToSecondary(t *testing.T) {
	l := New()
	l.forceKeepLocal = 1
	t0 := locks.NewThread(0, 0)

	n0, n1, n2, n3 := &locks.Node{}, &locks.Node{}, &locks.Node{}, &locks.Node{}
	enqueue(l, n0, 0)
	enqueue(l, n1, 1)
	enqueue(l, n2, 0)
	enqueue(l, n3, 0)
	l.unlockNode(n0, t0) // n1 → secondary; lock to n2

	// Now force the fairness draw to fail: unlock must splice the
	// secondary queue (n1) before the main successor (n3).
	l.forceKeepLocal = -1
	t2 := locks.NewThread(2, 0)
	l.unlockNode(n2, t2)
	if n1.Spin.Load() != granted {
		t.Fatal("secondary head n1 not granted on fairness flush")
	}
	chain(t, "after fairness flush", n1, n3)
}

// TestUncontendedPath: a single thread's lock/unlock leaves no residue
// and never records a socket (the fast path must not query topology).
func TestUncontendedPath(t *testing.T) {
	l := New()
	th := locks.NewThread(0, 1)
	for i := 0; i < 10; i++ {
		l.Lock(th)
		if th.Node(0).Socket != -1 {
			t.Fatal("uncontended lock recorded a socket")
		}
		l.Unlock(th)
		if l.q.Tail.Load() != nil {
			t.Fatal("lock not free after unlock")
		}
	}
}

func TestMutualExclusion(t *testing.T) {
	configs := map[string]Options{
		"default": DefaultOptions(),
		"opt":     OptimizedOptions(),
		"fifo":    {KeepLocalMask: 0},
		"eager":   {KeepLocalMask: ^uint64(0)},
	}
	for name, opts := range configs {
		opts := opts
		t.Run(name, func(t *testing.T) {
			const threads, iters = 8, 300
			l := NewWithOptions(opts)
			place := numa.NewPlacement(numa.TwoSocketXeonE5(), threads, numa.Spread)
			var counter int
			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := locks.NewThread(w, place.SocketOf(w))
					for i := 0; i < iters; i++ {
						l.Lock(th)
						counter++
						l.Unlock(th)
					}
				}(w)
			}
			wg.Wait()
			if counter != threads*iters {
				t.Fatalf("counter = %d, want %d", counter, threads*iters)
			}
			if l.q.Tail.Load() != nil {
				t.Fatal("queue not empty at quiescence")
			}
		})
	}
}

// TestFIFOModeNeverTouchesSecondaryQueue: with KeepLocalMask == 0 CNA
// must degenerate to exact MCS behaviour.
func TestFIFOModeNeverTouchesSecondaryQueue(t *testing.T) {
	const threads, iters = 6, 200
	l := NewWithOptions(Options{KeepLocalMask: 0})
	l.EnableStats()
	var wg sync.WaitGroup
	var counter int
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := locks.NewThread(w, w%2)
			for i := 0; i < iters; i++ {
				l.Lock(th)
				counter++
				l.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	if counter != threads*iters {
		t.Fatalf("counter = %d", counter)
	}
	if l.stats.SecondaryMoves != 0 || l.stats.QueueAlterations != 0 || l.stats.Flushes != 0 {
		t.Fatalf("FIFO mode altered queues: %+v", l.stats)
	}
}

// TestLocalityBeatsMCS: under contention, CNA's remote-handover fraction
// must be below MCS's on the same workload — the mechanism behind every
// speedup in the paper.
func TestLocalityBeatsMCS(t *testing.T) {
	const threads, iters = 8, 400
	place := numa.NewPlacement(numa.TwoSocketXeonE5(), threads, numa.Spread)

	run := func(lock locks.Mutex) {
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := locks.NewThread(w, place.SocketOf(w))
				for i := 0; i < iters; i++ {
					lock.Lock(th)
					lock.Unlock(th)
				}
			}(w)
		}
		wg.Wait()
	}

	cna := New()
	cna.EnableStats()
	run(cna)
	mcs := locks.NewMCS()
	mcs.EnableStats()
	run(mcs)

	cnaFrac := cna.stats.Handover.RemoteFraction()
	mcsFrac := mcs.Handovers().RemoteFraction()
	if cnaFrac >= mcsFrac && mcsFrac > 0.05 {
		t.Errorf("CNA remote fraction %.3f not below MCS %.3f", cnaFrac, mcsFrac)
	}
}

// TestNestedCNALocksShareThreadNodes: two CNA locks nested by the same
// threads queue the threads' depth-0 and depth-1 nodes, whichever lock
// they are for.
func TestNestedCNALocksShareThreadNodes(t *testing.T) {
	a, b := New(), New()
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := locks.NewThread(w, w%2)
			for i := 0; i < 200; i++ {
				a.Lock(th)
				b.Lock(th)
				counter++
				b.Unlock(th)
				a.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	if counter != 800 {
		t.Fatalf("counter = %d, want 800", counter)
	}
}

// TestManyLocksThreadNodes: the compactness claim in practice — 1000
// locks, no per-lock node storage, every acquisition queueing one of the
// acquiring thread's own nodes.
func TestManyLocksThreadNodes(t *testing.T) {
	ls := make([]*Lock, 1000)
	for i := range ls {
		ls[i] = New()
	}
	var wg sync.WaitGroup
	counters := make([]int, len(ls))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := locks.NewThread(w, w%2)
			for i := 0; i < 2000; i++ {
				idx := (i*7 + w*13) % len(ls)
				ls[idx].Lock(th)
				counters[idx]++
				ls[idx].Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != 8000 {
		t.Fatalf("total = %d, want 8000", total)
	}
}

// TestNoStarvationWithAggressiveFairness: a lone remote thread must make
// progress against a local-heavy majority when the fairness mask is
// small.
func TestNoStarvationWithAggressiveFairness(t *testing.T) {
	l := NewWithOptions(Options{KeepLocalMask: 0x3}) // flush ~25% of handovers
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := locks.NewThread(w, 0)
			for {
				select {
				case <-done:
					return
				default:
				}
				l.Lock(th)
				l.Unlock(th)
			}
		}(w)
	}
	// The remote thread needs the lock 50 times.
	remote := locks.NewThread(3, 1)
	for i := 0; i < 50; i++ {
		l.Lock(remote)
		l.Unlock(remote)
	}
	close(done)
	wg.Wait()
}

func TestOptionsConstructors(t *testing.T) {
	d := DefaultOptions()
	if d.KeepLocalMask != 0xffff || d.ShuffleReduction {
		t.Errorf("DefaultOptions = %+v", d)
	}
	o := OptimizedOptions()
	if !o.ShuffleReduction || o.ShuffleMask != 0xff {
		t.Errorf("OptimizedOptions = %+v", o)
	}
	if New().Name() != "CNA" {
		t.Error("default lock name")
	}
	if NewWithOptions(o).Name() != "CNA-opt" {
		t.Error("optimized lock name")
	}
}

// Property: for random small thread/iteration counts and random fairness
// masks, the lock preserves the counter and quiesces empty.
func TestCNAQuiescenceProperty(t *testing.T) {
	f := func(nThreads, nIters uint8, mask uint16) bool {
		threads := int(nThreads)%5 + 2
		iters := int(nIters)%40 + 1
		l := NewWithOptions(Options{KeepLocalMask: uint64(mask)})
		var counter int
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := locks.NewThread(w, w%2)
				for i := 0; i < iters; i++ {
					l.Lock(th)
					counter++
					l.Unlock(th)
				}
			}(w)
		}
		wg.Wait()
		return counter == threads*iters && l.q.Tail.Load() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property (shuffle reduction): the optimisation must reduce queue
// alterations relative to plain CNA on the same deterministic schedule.
func TestShuffleReductionReducesAlterations(t *testing.T) {
	run := func(opts Options) uint64 {
		const threads, iters = 6, 300
		l := NewWithOptions(opts)
		l.EnableStats()
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := locks.NewThread(w, w%2)
				for i := 0; i < iters; i++ {
					l.Lock(th)
					l.Unlock(th)
				}
			}(w)
		}
		wg.Wait()
		return l.stats.QueueAlterations
	}
	plain := run(DefaultOptions())
	opt := run(OptimizedOptions())
	if plain > 20 && opt > plain {
		t.Errorf("shuffle reduction increased alterations: plain=%d opt=%d", plain, opt)
	}
}

func BenchmarkCNAUncontended(b *testing.B) {
	l := New()
	th := locks.NewThread(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Lock(th)
		l.Unlock(th)
	}
}

func BenchmarkMCSUncontendedBaseline(b *testing.B) {
	l := locks.NewMCS()
	th := locks.NewThread(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Lock(th)
		l.Unlock(th)
	}
}
