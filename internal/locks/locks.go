// Package locks provides the mutual-exclusion algorithms the CNA paper
// evaluates against: simple spin locks (test-and-set and friends), queue
// locks (MCS, CLH, ticket) and NUMA-aware locks (HBO here; Lock Cohorting
// and HMCS in subpackages; CNA itself in internal/core).
//
// Construction is registry-first: every algorithm here registers a Spec
// with internal/lockreg, which is the single source of truth for lock
// names, aliases and policy knobs. Benchmarks, examples and tests build
// locks via lockreg.Build (or the repro facade's Build) rather than
// calling the New* constructors below directly; each Name() string is
// the canonical registry name, and the lockreg conformance suite runs
// every registered algorithm through the contract documented on Mutex.
//
// # Threads
//
// Every algorithm is driven through a per-worker *Thread, which carries
// the worker's identity: a dense id, the NUMA socket it runs on (from a
// numa.Placement), and a private PRNG. The MCS-family queue locks (MCS,
// MCSCR, CNA, HMCS's leaves and the cohort MCS locals) additionally need
// a queue node per acquisition, as does a reader that waits for an RW
// lock's writer, and the nodes belong to the thread, not to the lock: a
// Thread carries one Node per nesting depth, and whichever lock it
// acquires at that depth queues that node, as the Linux kernel's four
// per-CPU qspinlock nodes serve every spinlock. Such a lock costs the
// same however many threads use it: an MCS, MCSCR or CNA lock is its
// tail word and its configuration. Locks must therefore be
// released in LIFO order with respect to other locks acquired through
// the same Thread, which is the discipline every workload in this repo
// (and the kernel) follows.
//
// # The MCS queue
//
// Queue holds the MCS protocol once for all of them: the tail word, the
// enqueue (Lock, and TryLock into an empty queue), the timed enqueue
// with Scott-&-Scherer abandonment (LockUntil; an expired thread
// retires its node with Thread.Retire) and the release walk that skips
// abandoned nodes (Unlock). MCS, MCSCR's enqueue, both HMCS levels, the
// cohort MCS locals and CNA's timed and try paths call it; CNA's
// untimed paths and MCSCR's culling release walk the links themselves.
//
// # Waiting policies
//
// Every queue lock waits through a pluggable waiter.Policy (see
// internal/waiter): the default Spin policy reproduces the paper's
// always-spinning kernel waiters, while SpinThenPark/Park block waiters
// on a per-node semaphore for oversubscribed user-space deployments.
// Locks expose SetWait (waiter.Setter), the registry exposes it as the
// WithWait option plus registered "*-park" variants. Busy phases are
// bounded and yield to the Go scheduler, so every lock here is live at
// GOMAXPROCS=1 under every policy.
package locks

import (
	"fmt"

	"repro/internal/prng"
)

// MaxNesting is the maximum depth to which a single thread may nest lock
// acquisitions through the same Thread value. The Linux kernel uses the
// same constant for its per-CPU qspinlock nodes ("the Linux kernel limits
// the number of contexts that can nest ... the limit is four").
const MaxNesting = 4

// Thread is a worker's identity, passed to every Lock/Unlock call.
type Thread struct {
	// ID is a dense worker index in [0, maxThreads); locks that keep
	// per-thread state of their own (CLH) index it by ID.
	ID int
	// Socket is the NUMA node the thread runs on.
	Socket int
	// RNG is the thread's private generator (the paper's lightweight
	// pseudo-random number generator).
	RNG *prng.Xoroshiro

	// KeepLocal is the thread's remaining budget of local handovers
	// under CNA's fairness countdown (Section 6: "store the drawn number
	// in a thread-local variable and decrement it with every lock
	// handover"). Only the thread itself touches it, while it releases a
	// lock.
	KeepLocal uint64

	// nest is the current lock-nesting depth (LIFO discipline).
	nest int
	// nodes holds the thread's queue node for each nesting depth; a
	// depth the thread was given no node for is nil and must never be
	// reached. A Thread is single-goroutine by contract (see nest), so
	// plain fields suffice.
	nodes [MaxNesting]*Node
}

// NewThread returns a Thread with the given id and socket, a
// deterministic per-thread PRNG and a queue node for every nesting
// depth.
func NewThread(id, socket int) *Thread {
	t := new(Thread)
	t.Init(id, socket, new(prng.Xoroshiro), new([MaxNesting]Node)[:])
	return t
}

// Init resets t in place to a fresh Thread with the given id and
// socket, seeding rng exactly as NewThread seeds its generator and
// making it t's RNG, and giving it nodes as its queue nodes for nesting
// depths 0, 1, ... (at most MaxNesting). It lets a pool embed each
// Thread and its PRNG state by value, on cache lines of their own, and
// place the Thread's node where it chooses.
func (t *Thread) Init(id, socket int, rng *prng.Xoroshiro, nodes []Node) {
	rng.Seed(uint64(id)*0x9e3779b97f4a7c15 + 0xdeadbeef)
	*t = Thread{ID: id, Socket: socket, RNG: rng}
	for i := range nodes {
		t.nodes[i] = nodes[i].init()
	}
}

// AcquireSlot reserves a nesting slot and returns its index. It is meant
// for lock implementations (including those in subpackages), not for lock
// users: every Lock implementation that needs per-acquisition state calls
// it exactly once on entry and pairs it with ReleaseSlot in Unlock.
// The panic paths live in separate functions so AcquireSlot/ReleaseSlot
// themselves stay inlinable into the lock hot paths.
func (t *Thread) AcquireSlot() int {
	if t.nest >= MaxNesting {
		panicNestOverflow(t.ID)
	}
	n := t.nest
	t.nest = n + 1
	return n
}

// ReleaseSlot releases the most recent nesting slot and returns its index.
func (t *Thread) ReleaseSlot() int {
	n := t.nest - 1
	if n < 0 {
		panicNestUnderflow(t.ID)
	}
	t.nest = n
	return n
}

func panicNestOverflow(id int) {
	panic(fmt.Sprintf("locks: thread %d exceeded MaxNesting=%d", id, MaxNesting))
}

func panicNestUnderflow(id int) {
	panic(fmt.Sprintf("locks: thread %d unlocked more than it locked", id))
}

// Node returns the thread's queue node for nesting depth d. Queue locks
// pair it with the slot calls: t.Node(t.AcquireSlot()) on entry,
// t.Node(t.ReleaseSlot()) in Unlock.
func (t *Thread) Node(d int) *Node { return t.nodes[d] }

// Depth reports the current nesting depth (for tests).
func (t *Thread) Depth() int { return t.nest }

// Mutex is the uniform lock interface used by all benchmarks and
// applications. Implementations are created for a fixed maximum number of
// threads; calls must pass Thread values with IDs below that maximum.
type Mutex interface {
	// Lock acquires the mutex for t, blocking until it is available.
	Lock(t *Thread)
	// TryLock attempts a single non-blocking acquisition for t: it
	// returns true iff the mutex was free and is now held. A TryLock —
	// failed or successful — never joins a wait queue and never touches
	// the waiter substrate (pinned by the TestTryLockNeverTouchesWaiterState
	// tests here and in internal/core); the composed fast path of Fissile
	// Locks (Dice & Kogan 2020) is built from exactly this operation in
	// front of the queue machinery. On failure the thread's nesting slot
	// is not consumed.
	TryLock(t *Thread) bool
	// Unlock releases the mutex. It must be called by the thread that
	// holds it (cohort-style global locks relax this internally, but the
	// public interface keeps the POSIX contract).
	Unlock(t *Thread)
	// Name identifies the algorithm in reports, e.g. "MCS" or "CNA".
	Name() string
}

// NativeMutex is the goroutine-native lock contract: a sync.Locker
// (plus TryLock and Name) that needs no *Thread — any goroutine may
// call Lock and any goroutine may later Unlock the same acquisition,
// exactly like sync.Mutex. Registered locks gain this shape through the
// internal/gonative adapter, which claims a Thread slot per acquisition
// behind the scenes; the stdlib baselines (std, std-rw) implement it
// directly. The interface lives here, in the leaf lock package, so the
// registry can describe native builds without importing the adapter.
type NativeMutex interface {
	// Lock blocks until the mutex is held by the caller.
	Lock()
	// TryLock attempts one non-blocking acquisition (false when the
	// mutex — or, for adapted locks, a thread slot — is unavailable).
	TryLock() bool
	// Unlock releases the mutex. As with sync.Mutex, a different
	// goroutine than the locker may call it, provided the critical
	// section was handed over with proper synchronization.
	Unlock()
	// Name identifies the algorithm in reports, e.g. "CNA" or "std".
	Name() string
}

// StatsEnabler is implemented by locks whose holder-side statistics are
// opt-in. Statistics collection defaults to off so the hot paths of a
// default-built lock perform no counter writes at all (counter stores
// land on holder-written cache lines and cost real time on the
// uncontended path); benchmarks and tests that read handover or queue
// statistics must call EnableStats before first use — most conveniently
// via the registry's WithStats option.
type StatsEnabler interface {
	// EnableStats switches on statistics collection. It must be called
	// before the lock is shared; enabling concurrently with lock traffic
	// is a data race.
	EnableStats()
}

// HandoverCounter tracks where lock ownership travels, the statistic
// behind the paper's LLC-miss and locality arguments. Counters are
// maintained by the releasing thread while it still owns the lock, so no
// atomics are needed; reads are only meaningful when the lock is idle.
type HandoverCounter struct {
	local  uint64 // handovers to a thread on the holder's socket
	remote uint64 // handovers to a thread on another socket
	last   int    // socket of the previous holder, -1 initially
}

// NewHandoverCounter returns a counter with no previous holder.
func NewHandoverCounter() HandoverCounter { return HandoverCounter{last: -1} }

// Record notes that a thread on socket now holds the lock.
func (h *HandoverCounter) Record(socket int) {
	if h.last >= 0 {
		if socket == h.last {
			h.local++
		} else {
			h.remote++
		}
	}
	h.last = socket
}

// Counts returns the number of local and remote handovers so far.
func (h *HandoverCounter) Counts() (local, remote uint64) { return h.local, h.remote }

// RemoteFraction returns remote/(local+remote), or 0 when no handovers
// have happened.
func (h *HandoverCounter) RemoteFraction() float64 {
	total := h.local + h.remote
	if total == 0 {
		return 0
	}
	return float64(h.remote) / float64(total)
}
