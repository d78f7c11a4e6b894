package memsim

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/numa"
)

func sim2() *Sim { return New(numa.TwoSocketXeonE5(), DefaultCosts2S()) }

func TestSingleThreadWork(t *testing.T) {
	s := sim2()
	var end uint64
	s.Spawn(0, func(th *T) {
		th.Work(100)
		th.Work(50)
		end = th.Now()
	})
	s.Run()
	if end != 150 {
		t.Fatalf("thread time = %d, want 150", end)
	}
	if s.Clock() < 150 {
		t.Fatalf("global clock = %d, want >= 150", s.Clock())
	}
}

func TestLoadCosts(t *testing.T) {
	s := sim2()
	c := DefaultCosts2S()
	w := s.NewWord(42)
	var t0, t1, t2 uint64
	var sameSocketCost uint64
	s.Spawn(0, func(th *T) {
		if v := th.Load(w); v != 42 {
			t.Errorf("Load = %d, want 42", v)
		}
		t0 = th.Now() // first access: miss (line starts uncached)
		th.Load(w)
		t1 = th.Now() // second: core-private (same thread re-reads)
		th.Load(w)
		t2 = th.Now()
	})
	// CPU 2 is also socket 0: its first read is an intra-socket LLC hit.
	s.Spawn(2, func(th *T) {
		th.Work(10_000) // run after the first thread
		before := th.Now()
		th.Load(w)
		sameSocketCost = th.Now() - before
	})
	s.Run()
	if t0 != c.RemoteMiss {
		t.Errorf("cold load cost %d, want %d", t0, c.RemoteMiss)
	}
	if t1-t0 != c.L1Hit || t2-t1 != c.L1Hit {
		t.Errorf("re-read costs %d, %d, want %d", t1-t0, t2-t1, c.L1Hit)
	}
	if sameSocketCost != c.LocalHit {
		t.Errorf("same-socket other-thread read cost %d, want %d", sameSocketCost, c.LocalHit)
	}
}

func TestCrossSocketTransferCosts(t *testing.T) {
	// CPU 0 is socket 0, CPU 1 is socket 1 (interleaved numbering).
	s := sim2()
	c := DefaultCosts2S()
	w := s.NewWord(0)
	var writerDone, readerCost uint64
	s.Spawn(0, func(th *T) {
		th.Store(w, 7)
		writerDone = th.Now()
	})
	s.Spawn(1, func(th *T) {
		th.Work(1000) // run after the writer
		before := th.Now()
		if v := th.Load(w); v != 7 {
			t.Errorf("remote read = %d, want 7", v)
		}
		readerCost = th.Now() - before
	})
	s.Run()
	if writerDone == 0 {
		t.Fatal("writer never ran")
	}
	if readerCost != c.RemoteMiss {
		t.Errorf("cross-socket read cost %d, want %d", readerCost, c.RemoteMiss)
	}
	if s.LLC().Misses[1] != 1 {
		t.Errorf("socket 1 misses = %d, want 1", s.LLC().Misses[1])
	}
}

func TestAwaitChangeWakesOnWrite(t *testing.T) {
	s := sim2()
	w := s.NewWord(0)
	var got uint64
	s.Spawn(0, func(th *T) {
		got = th.AwaitChange(w, 0)
	})
	s.Spawn(1, func(th *T) {
		th.Work(500)
		th.Store(w, 9)
	})
	s.Run()
	if got != 9 {
		t.Fatalf("AwaitChange = %d, want 9", got)
	}
}

func TestAwaitChangeImmediate(t *testing.T) {
	s := sim2()
	w := s.NewWord(5)
	var got uint64
	s.Spawn(0, func(th *T) { got = th.AwaitChange(w, 0) })
	s.Run()
	if got != 5 {
		t.Fatalf("AwaitChange on already-changed word = %d, want 5", got)
	}
}

func TestFalseSharingWakesWatcher(t *testing.T) {
	// Two words on one line: writing word B must wake (and re-park) a
	// watcher of word A, charging it a re-fetch.
	s := sim2()
	line := s.NewLine()
	a := s.NewWordOn(line, 0)
	b := s.NewWordOn(line, 0)
	var woke uint64
	s.Spawn(0, func(th *T) {
		woke = th.AwaitChange(a, 0)
	})
	s.Spawn(1, func(th *T) {
		th.Work(100)
		th.Store(b, 1) // false-sharing write: watcher re-checks, re-parks
		th.Work(100)
		th.Store(a, 3) // real wake
	})
	s.Run()
	if woke != 3 {
		t.Fatalf("watcher saw %d, want 3", woke)
	}
}

func TestCAS(t *testing.T) {
	s := sim2()
	w := s.NewWord(10)
	s.Spawn(0, func(th *T) {
		if !th.CAS(w, 10, 20) {
			t.Error("CAS(10→20) failed")
		}
		if th.CAS(w, 10, 30) {
			t.Error("stale CAS succeeded")
		}
		if v := th.Load(w); v != 20 {
			t.Errorf("value = %d, want 20", v)
		}
	})
	s.Run()
}

func TestSwapAndFetchAdd(t *testing.T) {
	s := sim2()
	w := s.NewWord(3)
	s.Spawn(0, func(th *T) {
		if old := th.Swap(w, 8); old != 3 {
			t.Errorf("Swap old = %d, want 3", old)
		}
		if nv := th.FetchAdd(w, 2); nv != 10 {
			t.Errorf("FetchAdd new = %d, want 10", nv)
		}
	})
	s.Run()
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		s := sim2()
		w := s.NewWord(0)
		for c := 0; c < 8; c++ {
			s.Spawn(c, func(th *T) {
				for i := 0; i < 50; i++ {
					for {
						v := th.Load(w)
						if th.CAS(w, v, v+1) {
							break
						}
					}
					th.Work(th.RNG().Next() % 100)
				}
			})
		}
		s.Run()
		return s.Clock(), w.Value()
	}
	c1, v1 := run()
	c2, v2 := run()
	if c1 != c2 || v1 != v2 {
		t.Fatalf("nondeterministic: run1=(%d,%d) run2=(%d,%d)", c1, v1, c2, v2)
	}
	if v1 != 400 {
		t.Fatalf("counter = %d, want 400", v1)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := sim2()
	w := s.NewWord(0)
	s.Spawn(0, func(th *T) {
		th.AwaitChange(w, 0) // nobody will ever write
	})
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked simulation did not panic")
		}
	}()
	s.Run()
}

func TestSpawnAfterRunPanics(t *testing.T) {
	s := sim2()
	s.Spawn(0, func(th *T) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn after Run did not panic")
		}
	}()
	s.Spawn(1, func(th *T) {})
}

func TestThreadIdentity(t *testing.T) {
	s := New(numa.FourSocketXeonE7(), DefaultCosts4S())
	var socket, cpu, id int
	s.Spawn(6, func(th *T) { socket, cpu, id = th.Socket(), th.CPU(), th.ID() })
	s.Run()
	if cpu != 6 || id != 0 {
		t.Fatalf("cpu=%d id=%d", cpu, id)
	}
	if socket != 6%4 {
		t.Fatalf("socket = %d, want %d", socket, 6%4)
	}
}

func TestMissRateAccounting(t *testing.T) {
	// Thread on CPU 0 misses once; thread on CPU 2 (same socket) then
	// hits in the shared LLC twice. Core-private re-reads do not count
	// as LLC accesses at all.
	s := sim2()
	w := s.NewWord(0)
	s.Spawn(0, func(th *T) {
		th.Load(w) // LLC miss
		th.Load(w) // core-private, not an LLC access
	})
	s.Spawn(2, func(th *T) {
		th.Work(10_000)
		th.Load(w) // LLC hit
	})
	s.Spawn(4, func(th *T) {
		th.Work(20_000)
		th.Load(w) // LLC hit
	})
	s.Run()
	llc := s.LLC()
	if llc.TotalMisses() != 1 || llc.TotalAccesses() != 3 {
		t.Fatalf("misses=%d accesses=%d, want 1/3", llc.TotalMisses(), llc.TotalAccesses())
	}
	if r := llc.MissRate(); r < 0.33 || r > 0.34 {
		t.Fatalf("miss rate = %v, want ~1/3", r)
	}
}

// Property: a shared counter incremented via CAS loops by random thread
// counts always ends exact, and virtual time is positive and identical
// across two identical runs.
func TestCounterProperty(t *testing.T) {
	f := func(nThreads, nIters uint8) bool {
		threads := int(nThreads)%6 + 1
		iters := int(nIters)%30 + 1
		run := func() (uint64, uint64) {
			s := sim2()
			w := s.NewWord(0)
			for c := 0; c < threads; c++ {
				s.Spawn(c, func(th *T) {
					for i := 0; i < iters; i++ {
						for {
							v := th.Load(w)
							if th.CAS(w, v, v+1) {
								break
							}
						}
					}
				})
			}
			s.Run()
			return w.Value(), s.Clock()
		}
		v1, c1 := run()
		v2, c2 := run()
		return v1 == uint64(threads*iters) && v1 == v2 && c1 == c2 && c1 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestScheduleOrder pins the scheduler's order: operations execute in
// (local clock, thread id) order, also when the running thread could run
// ahead, and the global clock ends at the last thread's final time. The
// threads mix Work of different lengths, private and shared lines, a CAS,
// an AwaitChange woken first by a false-sharing store, and a time tie
// that the lower-id queued thread must win.
func TestScheduleOrder(t *testing.T) {
	type entry struct {
		now uint64
		id  int
	}
	var log []entry
	// One simulated thread executes at a time, so the log needs no lock.
	mark := func(th *T) { log = append(log, entry{th.Now(), th.ID()}) }
	var final [4]uint64

	s := sim2()
	shared := s.NewWord(0)
	priv0, priv1 := s.NewWord(0), s.NewWord(0)
	flagLine := s.NewLine()
	flag, pad := s.NewWordOn(flagLine, 0), s.NewWordOn(flagLine, 0)
	var casOK bool
	var awaited uint64
	s.Spawn(0, func(th *T) { // socket 0
		mark(th)
		th.Work(10) // queued at 10 while thread 1 reaches 10 too
		mark(th)
		th.Store(shared, 1)
		mark(th)
		th.Load(priv0)
		mark(th)
		th.Store(priv0, 1)
		final[th.ID()] = th.Now()
	})
	s.Spawn(1, func(th *T) { // socket 1
		mark(th)
		th.Work(5)
		mark(th)
		th.Work(5) // ties thread 0 at 10: thread 0 goes first
		mark(th)
		casOK = th.CAS(shared, 1, 2)
		mark(th)
		th.Store(priv1, 1)
		mark(th)
		th.Load(priv1)
		final[th.ID()] = th.Now()
	})
	s.Spawn(2, func(th *T) { // socket 0
		mark(th)
		awaited = th.AwaitChange(flag, 0)
		mark(th)
		th.Load(shared)
		final[th.ID()] = th.Now()
	})
	s.Spawn(3, func(th *T) { // socket 1
		mark(th)
		th.Work(30)
		mark(th)
		th.Store(pad, 1) // false sharing: wakes thread 2, which parks again
		mark(th)
		th.Work(200)
		mark(th)
		th.Store(flag, 7)
		mark(th)
		th.Work(1000)
		mark(th)
		th.Work(1) // the last operation of the run, with nothing queued
		final[th.ID()] = th.Now()
	})
	s.Run()

	for i := 1; i < len(log); i++ {
		a, b := log[i-1], log[i]
		if b.now < a.now || b.now == a.now && b.id < a.id {
			t.Fatalf("operation %d: thread %d ran at %d after thread %d at %d", i, b.id, b.now, a.id, a.now)
		}
	}
	if want := slices.Max(final[:]); s.Clock() != want {
		t.Errorf("Clock() = %d, want the largest final Now() %d", s.Clock(), want)
	}
	if !casOK {
		t.Error("thread 1's CAS failed: it ran before thread 0's store at the same time")
	}
	if awaited != 7 {
		t.Errorf("AwaitChange = %d, want 7", awaited)
	}
}

// TestThreadPanicSurfacesFromRun checks that a panic inside a simulated
// thread propagates out of Run with its value.
func TestThreadPanicSurfacesFromRun(t *testing.T) {
	type sentinel struct{ id int }
	s := sim2()
	s.Spawn(0, func(th *T) { th.Work(10) })
	s.Spawn(1, func(th *T) {
		th.Work(5)
		panic(sentinel{th.ID()})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		s.Run()
	}()
	if got != (sentinel{1}) {
		t.Fatalf("Run panicked with %v, want %v", got, sentinel{1})
	}
}

// TestDrivingHalvesHandoffResumes checks that two threads taking turns
// switch coroutines once per turn of the thread that is not driving: N
// alternating stores take at most N/2 + 2 resumes (the first resume, one
// per store of thread 1, and the one that lets thread 1 return). A
// scheduler that returns to Run at every turn resumes once per store.
func TestDrivingHalvesHandoffResumes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 1001} {
		s := handoff(n)
		s.Run()
		if limit := n/2 + 2; s.resumes > limit {
			t.Errorf("%d alternating stores took %d resumes, want at most %d", n, s.resumes, limit)
		}
	}
}

// TestDrivenThreadPanicSurfacesFromRun checks that a panic in a thread
// resumed by a driving thread, not by Run, propagates out of Run with its
// value.
func TestDrivenThreadPanicSurfacesFromRun(t *testing.T) {
	type sentinel struct{ id int }
	s := sim2()
	s.Spawn(0, func(th *T) {
		th.Work(10) // thread 1 is queued at 0: thread 0 drives and resumes it
		t.Error("thread 0 ran on after thread 1 panicked")
	})
	driven := false
	s.Spawn(1, func(th *T) {
		driven = th.sim.driving
		panic(sentinel{th.ID()})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		s.Run()
	}()
	if !driven {
		t.Fatal("thread 1 was resumed by Run, not by the driving thread 0")
	}
	if got != (sentinel{1}) {
		t.Fatalf("Run panicked with %v, want %v", got, sentinel{1})
	}
}

// TestDeadlockAfterDriving checks that Run still reports a deadlock when
// the last runnable thread parks after another thread drove the
// scheduler.
func TestDeadlockAfterDriving(t *testing.T) {
	s := sim2()
	w := s.NewWord(0)
	driven := false
	s.Spawn(0, func(th *T) {
		th.Work(10) // gives way to thread 1 at 0, driving the scheduler
		th.AwaitChange(w, 0)
	})
	s.Spawn(1, func(th *T) {
		driven = th.sim.driving
		th.Work(20) // gives way back to thread 0, which parks
		th.AwaitChange(w, 0)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		s.Run()
	}()
	if !driven {
		t.Fatal("thread 1 was not resumed by a driving thread")
	}
	if msg, _ := got.(string); !strings.Contains(msg, "deadlock — 2 threads parked") {
		t.Fatalf("Run panicked with %v, want the deadlock diagnostic for 2 parked threads", got)
	}
}

// TestRunQueueOrder checks the run queue against a plain list: pushes
// mixed with pops, with clocks drawn from a small range so that ties go
// to the lower id, always pop the earliest queued thread.
func TestRunQueueOrder(t *testing.T) {
	earliest := func(a, b *T) int {
		if a.precedes(b) {
			return -1
		}
		return 1
	}
	f := func(clocks []uint8, popAfter []bool) bool {
		s := sim2()
		var queued []*T
		popOK := func() bool {
			want := slices.MinFunc(queued, earliest)
			queued = slices.DeleteFunc(queued, func(u *T) bool { return u == want })
			return s.pop() == want
		}
		for i, c := range clocks {
			th := &T{id: i, now: uint64(c % 8)}
			s.push(th)
			queued = append(queued, th)
			if i < len(popAfter) && popAfter[i] && !popOK() {
				return false
			}
		}
		for len(queued) > 0 {
			if !popOK() {
				return false
			}
		}
		return len(s.queue) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkSimEventThroughput runs one thread, so every operation runs
// ahead without a thread switch.
func BenchmarkSimEventThroughput(b *testing.B) {
	s := sim2()
	w := s.NewWord(0)
	s.Spawn(0, func(th *T) {
		for i := 0; i < b.N; i++ {
			th.Load(w)
		}
	})
	b.ResetTimer()
	s.Run()
}

// BenchmarkSimHandoff has two threads on different sockets take turns
// storing to one line, so every operation gives way to the other thread.
// Thread 0 drives the scheduler, so only thread 1's turns resume a
// coroutine: about half a resume per operation.
func BenchmarkSimHandoff(b *testing.B) {
	s := handoff(b.N)
	b.ResetTimer()
	s.Run()
	b.ReportMetric(float64(s.resumes)/float64(max(b.N, 1)), "resumes/op")
}

// handoff builds the simulation of BenchmarkSimHandoff: threads on CPUs 0
// and 1 (sockets 0 and 1) alternate n stores to one word between them.
func handoff(n int) *Sim {
	s := sim2()
	w := s.NewWord(0)
	for cpu := 0; cpu < 2; cpu++ {
		k := n / 2
		if cpu == 0 {
			k = n - k
		}
		s.Spawn(cpu, func(th *T) {
			for i := 0; i < k; i++ {
				th.Store(w, uint64(i))
			}
		})
	}
	return s
}
