// Package memsim is a deterministic, process-oriented discrete-event
// simulator of a multi-socket cache-coherent machine. It exists because
// every figure in the CNA paper is driven by one mechanism — the cost of
// moving cache lines between sockets — and this host has neither multiple
// sockets nor even multiple CPUs. The simulator models that mechanism
// directly and charges it to a virtual clock, so the paper's experiments
// can be regenerated on any host, bit-for-bit reproducibly.
//
// # Model
//
// A simulated machine has the NUMA topology of a numa.Topology and a
// Costs table. Memory is a set of Words grouped onto Lines (cache
// lines). A line-granular directory tracks which sockets hold a copy of
// each line:
//
//   - A load hits (cost Costs.LocalHit) if the reader's socket has a
//     valid copy, and misses (cost Costs.RemoteMiss, counted as an LLC
//     load miss for that socket) otherwise, after which the socket is
//     added to the sharer set.
//   - A store or atomic needs the line exclusive: if any other socket
//     holds a copy the writer pays Costs.RemoteMiss to invalidate
//     (counted as a miss), otherwise Costs.LocalHit; atomics add
//     Costs.AtomicExtra. After a write the writer's socket is the sole
//     owner.
//   - A thread spinning on a word parks in the line's watcher list and
//     generates no events until a write to that line wakes it; on wake it
//     pays the load cost to re-fetch the line. This is exactly how
//     invalidation-based spinning behaves on real hardware, and it makes
//     simulating 142 spinning threads cheap.
//
// # Scheduling
//
// Each simulated thread is a coroutine (iter.Pull), so exactly one thread
// executes at a time and control passes between threads without the Go
// scheduler. Every memory operation and Work ends in a scheduling point,
// where the thread's local clock has already advanced by the operation's
// cost. The next thread to execute is always the runnable one with the
// least (local virtual time, thread id); combined with seeded PRNGs this
// makes every simulation deterministic.
//
// Most scheduling points do not switch threads at all. When the running
// thread still precedes every queued thread in that order, it runs ahead
// without being queued: it would have been resumed next anyway, so
// operations execute in exactly the order of an event queue that
// re-queues the thread after every operation, at a fraction of the cost.
//
// A thread that must give way drives the scheduler itself instead of
// returning to Run: it queues itself, then pops and resumes the earliest
// thread until it pops itself, and carries on. A thread it resumes gives
// way by returning to it, so coroutines nest one level deep and two
// threads taking turns cost one switch each way. Run resumes a thread
// only to start the simulation and when the thread it resumed parks or
// returns.
//
// A panic inside a simulated thread propagates out of Run.
package memsim

import (
	"fmt"
	"iter"

	"repro/internal/numa"
	"repro/internal/prng"
)

// Costs parameterises the memory hierarchy, in virtual nanoseconds.
type Costs struct {
	// L1Hit is the cost of touching a line this socket owns exclusively
	// (modelling core-private cache residency after a write). Such
	// accesses generate no LLC traffic.
	L1Hit uint64
	// LocalHit is the cost of an access served by the socket's LLC (the
	// line is present but not exclusively owned).
	LocalHit uint64
	// RemoteMiss is the cost of fetching or invalidating a line that
	// another socket holds (an LLC load miss served by a remote cache).
	RemoteMiss uint64
	// AtomicExtra is the additional cost of a read-modify-write.
	AtomicExtra uint64
}

// DefaultCosts2S approximates the paper's 2-socket Xeon E5-2699 v3:
// core-private hits a couple of ns, intra-socket LLC accesses a few tens
// of ns, cross-socket transfers over QPI roughly 4-6x that.
func DefaultCosts2S() Costs {
	return Costs{L1Hit: 2, LocalHit: 18, RemoteMiss: 150, AtomicExtra: 12}
}

// DefaultCosts4S approximates the 4-socket Xeon E7-8895 v3, whose remote
// transfers the paper observes to be pricier (its MCS collapse is
// 6.2→1.5 ops/us versus 5.3→1.7 on the 2-socket box).
func DefaultCosts4S() Costs {
	return Costs{L1Hit: 2, LocalHit: 18, RemoteMiss: 260, AtomicExtra: 12}
}

// LLCStats counts per-socket cache behaviour.
type LLCStats struct {
	Hits   []uint64 // per socket
	Misses []uint64 // per socket
}

// TotalMisses sums misses over sockets.
func (s *LLCStats) TotalMisses() uint64 {
	var t uint64
	for _, m := range s.Misses {
		t += m
	}
	return t
}

// TotalAccesses sums all classified accesses.
func (s *LLCStats) TotalAccesses() uint64 {
	t := s.TotalMisses()
	for _, h := range s.Hits {
		t += h
	}
	return t
}

// MissRate returns misses / accesses (0 when idle).
func (s *LLCStats) MissRate() float64 {
	a := s.TotalAccesses()
	if a == 0 {
		return 0
	}
	return float64(s.TotalMisses()) / float64(a)
}

// Line is one cache line: a directory entry plus the list of parked
// spinners. Words on the same line share coherence fate (including
// false-sharing wakeups).
type Line struct {
	// lastToucher is the last thread to access the line; combined with
	// exclusive it decides whether an access is core-private (L1Hit).
	lastToucher int
	// exclusive is true when lastToucher holds the only copy (set by a
	// write, cleared by any other thread's access).
	exclusive bool
	sharers   uint64 // bitmask of sockets holding a valid copy
	watchers  []*T   // threads parked on this line
}

// Word is a 64-bit simulated memory location on some line.
type Word struct {
	line *Line
	val  uint64
}

// Value returns the word's current value without charging simulated cost
// (for assertions and result collection after Run).
func (w *Word) Value() uint64 { return w.val }

// Sim is one simulated machine run.
type Sim struct {
	topo    numa.Topology
	costs   Costs
	threads []*T
	// queue is a binary heap of the runnable threads ordered by
	// precedes. Ordering by the live t.now is sound because a queued
	// thread's clock never moves: only the running thread advances its
	// own clock, and chargeWrite raises a parked waiter's clock before
	// queueing it.
	queue   []*T
	clock   uint64
	llc     LLCStats
	running bool
	// driving is set while a thread runs the scheduler loop (see drive).
	driving bool
	live    int // threads whose fn has not returned
	resumes int // coroutine resumes, for the tests
}

// New builds a simulator for the given topology and cost table.
func New(topo numa.Topology, costs Costs) *Sim {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	if topo.Sockets > 64 {
		panic("memsim: sharer bitmask supports at most 64 sockets")
	}
	return &Sim{
		topo:  topo,
		costs: costs,
		llc: LLCStats{
			Hits:   make([]uint64, topo.Sockets),
			Misses: make([]uint64, topo.Sockets),
		},
	}
}

// NewLine allocates a fresh cache line with no cached copies.
func (s *Sim) NewLine() *Line { return &Line{lastToucher: -1} }

// NewWord allocates a word on its own private line (the padded layout
// every scalable lock uses for its hot words).
func (s *Sim) NewWord(init uint64) *Word {
	return &Word{line: s.NewLine(), val: init}
}

// NewWordOn allocates a word sharing the given line (used to model
// structures like queue nodes whose fields live together, and to study
// false sharing).
func (s *Sim) NewWordOn(line *Line, init uint64) *Word {
	return &Word{line: line, val: init}
}

// T is a simulated hardware thread.
type T struct {
	sim    *Sim
	id     int
	cpu    int
	socket int
	now    uint64
	rng    prng.Xoroshiro
	done   bool

	// next resumes the thread's coroutine until it gives way, parks or
	// returns; yield, called from inside the coroutine, hands control back
	// to its resumer: Run or the driving thread.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// watching, when non-nil, is the word the parked thread waits on.
	watching *Word
}

// Spawn creates a simulated thread on the given virtual CPU running fn.
// All Spawn calls must precede Run. fn runs as a coroutine that only the
// scheduler resumes; it does not start until the scheduler selects the
// thread.
func (s *Sim) Spawn(cpu int, fn func(t *T)) *T {
	if s.running {
		panic("memsim: Spawn after Run")
	}
	t := &T{
		sim:    s,
		id:     len(s.threads),
		cpu:    cpu,
		socket: s.topo.SocketOf(cpu),
	}
	t.rng.Seed(uint64(t.id)*0x9e3779b97f4a7c15 + 0x1234567)
	s.threads = append(s.threads, t)
	// The stop function is never called: after stop, yield returns false
	// and the thread would run on outside the scheduler. A thread left
	// suspended (by a deadlock or a panic elsewhere) stays suspended.
	t.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		fn(t)
		t.done = true
	})
	return t
}

// Run executes the simulation until every thread's fn returns. It
// starts the scheduler: it resumes the earliest runnable thread by
// (local clock, id), which then drives the scheduler itself whenever it
// gives way (see step), and Run resumes the next earliest only when that
// thread parks or returns.
//
// Run panics with a diagnostic if all remaining threads are parked (a
// deadlock in the simulated lock protocol); the parked threads stay
// suspended. A panic inside a simulated thread's fn propagates out of
// Run with the same value, leaving the other threads suspended.
func (s *Sim) Run() {
	s.running = true
	s.live = len(s.threads)
	for _, t := range s.threads {
		s.push(t)
	}
	for s.live > 0 {
		if len(s.queue) == 0 {
			parked := 0
			for _, t := range s.threads {
				if !t.done && t.watching != nil {
					parked++
				}
			}
			panic(fmt.Sprintf("memsim: deadlock — %d threads parked, none runnable", parked))
		}
		s.resume(s.pop())
	}
}

// Clock returns the global virtual time reached so far (after Run, the
// makespan of the simulation).
func (s *Sim) Clock() uint64 { return s.clock }

// LLC returns the simulator's cache statistics.
func (s *Sim) LLC() *LLCStats { return &s.llc }

// Topology returns the simulated machine's topology.
func (s *Sim) Topology() numa.Topology { return s.topo }

// ---- scheduler plumbing ----

// resume runs t's coroutine until t gives way, parks or returns,
// advancing the global clock to t's as an event queue would.
func (s *Sim) resume(t *T) {
	s.clock = max(s.clock, t.now)
	s.resumes++
	t.next()
	if t.done {
		s.live--
	}
}

// push adds t to the run queue.
func (s *Sim) push(t *T) {
	s.queue = append(s.queue, t)
	q := s.queue
	j := len(q) - 1
	for ; j > 0 && t.precedes(q[(j-1)/2]); j = (j - 1) / 2 {
		q[j] = q[(j-1)/2]
	}
	q[j] = t
}

// pop removes and returns the earliest queued thread; the queue must not
// be empty.
func (s *Sim) pop() *T {
	q := s.queue
	n := len(q) - 1
	first, last := q[0], q[n]
	q = q[:n]
	s.queue = q
	if n > 0 {
		i := 0
		for c := 1; c < n; c = 2*i + 1 {
			if c+1 < n && q[c+1].precedes(q[c]) {
				c++
			}
			if !q[c].precedes(last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	return first
}

// precedes reports whether t runs before u: earlier local clock first,
// lower id on a tie.
func (t *T) precedes(u *T) bool {
	return t.now < u.now || t.now == u.now && t.id < u.id
}

// step is the scheduling point after every operation, with t's local
// clock already advanced. If t still precedes every queued thread, it
// would be resumed next, so t runs ahead: it advances the global clock as
// a resume would and continues without a switch. Otherwise t is queued
// and gives way (see drive).
func (t *T) step() {
	s := t.sim
	if len(s.queue) == 0 || t.precedes(s.queue[0]) {
		s.clock = max(s.clock, t.now)
		return
	}
	s.push(t)
	t.drive()
}

// drive gives way from a queued t. When another thread is driving, t's
// coroutine yields to it. Otherwise t runs the scheduler loop in place:
// it resumes the earliest queued thread until it pops itself, which is
// the order Run's loop would resume them in, and then carries on. The
// loop ends because t is queued.
func (t *T) drive() {
	s := t.sim
	if s.driving {
		t.yield(struct{}{})
		return
	}
	s.driving = true
	for u := s.pop(); u != t; u = s.pop() {
		s.resume(u)
	}
	s.driving = false
	s.clock = max(s.clock, t.now)
}

// park suspends the thread on a line watcher without queueing it; a write
// to the line will queue it (see chargeWrite). The coroutine yields to
// its resumer: the driving thread, or Run.
func (t *T) park(w *Word) {
	t.watching = w
	w.line.watchers = append(w.line.watchers, t)
	t.yield(struct{}{})
	t.watching = nil
}

// ---- thread-visible API ----

// ID returns the thread's dense index (Spawn order).
func (t *T) ID() int { return t.id }

// CPU returns the virtual CPU the thread runs on.
func (t *T) CPU() int { return t.cpu }

// Socket returns the thread's NUMA node.
func (t *T) Socket() int { return t.socket }

// Now returns the thread's local virtual time in nanoseconds.
func (t *T) Now() uint64 { return t.now }

// RNG returns the thread's deterministic PRNG.
func (t *T) RNG() *prng.Xoroshiro { return &t.rng }

// Work advances the thread's clock by d nanoseconds of computation that
// touches no shared memory (the benchmark's "external work" and
// critical-section compute).
func (t *T) Work(d uint64) {
	t.now += d
	t.step()
}

// chargeRead updates directory state and returns after charging a load.
func (t *T) chargeRead(w *Word) {
	line := w.line
	mask := uint64(1) << uint(t.socket)
	switch {
	case line.lastToucher == t.id && line.sharers&mask != 0:
		// The line is still in this thread's core (it was the last to
		// touch it and no one invalidated it): private hit, no LLC
		// traffic.
		t.now += t.sim.costs.L1Hit
	case line.sharers&mask != 0:
		t.now += t.sim.costs.LocalHit
		t.sim.llc.Hits[t.socket]++
		line.exclusive = false
		line.lastToucher = t.id
	default:
		t.now += t.sim.costs.RemoteMiss
		t.sim.llc.Misses[t.socket]++
		line.sharers |= mask
		line.exclusive = false
		line.lastToucher = t.id
	}
}

// chargeWrite obtains the line exclusively, waking any parked watchers.
func (t *T) chargeWrite(w *Word) {
	line := w.line
	mask := uint64(1) << uint(t.socket)
	switch {
	case line.exclusive && line.lastToucher == t.id:
		// Already exclusive in this thread's core: private write.
		t.now += t.sim.costs.L1Hit
	case line.sharers == mask:
		// Present only in this socket: core-to-core transfer within the
		// socket (or a shared→exclusive upgrade).
		t.now += t.sim.costs.LocalHit
		t.sim.llc.Hits[t.socket]++
	case line.sharers&mask != 0:
		// We have a copy but other sockets must be invalidated.
		t.now += t.sim.costs.LocalHit + t.sim.costs.RemoteMiss/2
		t.sim.llc.Hits[t.socket]++
	default:
		t.now += t.sim.costs.RemoteMiss
		t.sim.llc.Misses[t.socket]++
	}
	line.sharers = mask
	line.exclusive = true
	line.lastToucher = t.id
	if len(line.watchers) > 0 {
		for _, waiter := range line.watchers {
			// The waiter re-fetches the line once the write lands (never
			// moving its local clock backwards). Its clock is raised
			// before it is queued: the run queue orders threads by their
			// clocks and relies on a queued clock never moving.
			waiter.now = max(waiter.now, t.now)
			t.sim.push(waiter)
		}
		line.watchers = line.watchers[:0]
	}
}

// Load reads a word.
func (t *T) Load(w *Word) uint64 {
	t.chargeRead(w)
	v := w.val
	t.step()
	return v
}

// Store writes a word.
func (t *T) Store(w *Word, v uint64) {
	t.chargeWrite(w)
	w.val = v
	t.step()
}

// Swap atomically exchanges the word's value.
func (t *T) Swap(w *Word, v uint64) uint64 {
	t.now += t.sim.costs.AtomicExtra
	t.chargeWrite(w)
	old := w.val
	w.val = v
	t.step()
	return old
}

// CAS atomically compares-and-swaps, returning success.
func (t *T) CAS(w *Word, old, new uint64) bool {
	t.now += t.sim.costs.AtomicExtra
	// Even a failed CAS needs the line (it is a write for coherence
	// purposes on x86).
	t.chargeWrite(w)
	if w.val != old {
		t.step()
		return false
	}
	w.val = new
	t.step()
	return true
}

// FetchAdd atomically adds delta and returns the new value. The result
// is captured before re-entering the scheduler: other threads may modify
// the word while this one is descheduled.
func (t *T) FetchAdd(w *Word, delta uint64) uint64 {
	t.now += t.sim.costs.AtomicExtra
	t.chargeWrite(w)
	w.val += delta
	nv := w.val
	t.step()
	return nv
}

// AwaitChange blocks until the word's value differs from seen and
// returns the new value. It models invalidation-based spinning: the
// thread pays one load to observe the current value, parks if it still
// equals seen, and on every wake (any write to the line, including
// false sharing) pays the re-fetch load before re-checking.
func (t *T) AwaitChange(w *Word, seen uint64) uint64 {
	for {
		t.chargeRead(w)
		if w.val != seen {
			v := w.val
			t.step()
			return v
		}
		t.park(w)
	}
}
