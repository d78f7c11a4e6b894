// Package repro is a Go reproduction of "Compact NUMA-Aware Locks"
// (Dave Dice and Alex Kogan, EuroSys 2019): the CNA lock itself, the
// Linux-kernel qspinlock it was designed to slot into, the baseline and
// competitor locks the paper evaluates against, and the simulated
// multi-socket machine on which every figure of the paper's evaluation
// is regenerated.
//
// This file is the public facade. The API is registry-first: every lock
// algorithm in the tree — TAS, TTAS, BO-TAS, MCS, CLH, MCSCR, the
// cohort lock C-BO-MCS, HMCS, CNA and CNA-opt — registers itself with
// internal/lockreg, and Build constructs any of them by
// (case-insensitive) name:
//
//	env  := repro.Env{MaxThreads: workers, Topology: repro.TwoSocketXeonE5()}
//	lock := repro.MustBuild("cna", env)          // or "MCS", "hmcs", "c-bo-mcs", ...
//	th   := repro.NewThread(id, socket)          // per-worker identity
//	lock.Lock(th); ...critical section...; lock.Unlock(th)
//
// Locks() enumerates every algorithm with its description; functional
// options (WithThreshold, WithMaxLocalPasses, ...) override the paper's
// default policy knobs:
//
//	lock := repro.MustBuild("CNA", env, repro.WithThreshold(0x3ff))
//
// Waiting is pluggable (internal/waiter): by default every waiter
// spins, as in the paper's kernel setting; WithWait selects
// spin-then-park or immediate-park waiters for oversubscribed
// deployments, and the registry carries pre-wired "*-park" variants
// ("mcs-park", "cna-park", ...) for the queue locks that can park:
//
//	lock := repro.MustBuild("cna-park", env)     // == "cna" + WithWait(SpinThenParkWait())
//
// # Drop-in usage (no Threads)
//
// Plain Go code that just wants a better sync.Mutex uses the
// goroutine-native form instead — a sync.Locker with TryLock, no
// *Thread anywhere (internal/gonative supplies per-acquisition thread
// identity from a pool of cache-line-padded slots behind the scenes):
//
//	var mu = repro.MustNewMutex("cna")           // satisfies sync.Locker
//	mu.Lock(); ...; mu.Unlock()
//	if mu.TryLock() { ...; mu.Unlock() }
//
// The stdlib baselines "std" (sync.Mutex) and "std-rw" (write-locked
// sync.RWMutex) are registered too, so swapping between the runtime's
// mutex and any paper lock is a one-string change in both directions.
// Every TryLock — on the native form and on the *Thread form — is a
// pure fast-path probe: it never blocks and never joins a queue.
//
// # Fissile fast paths
//
// Every queue-lock family also registers a Fissile composite under the
// "-fissile" suffix ("cna-fissile", "mcs-fissile", ...): a TAS outer
// word that uncontended acquires take with a single CAS — no queue
// node, no thread slot, no freelist traffic — falling back to the full
// queue under contention, with a bounded-barging hand-back so queued
// waiters cannot starve (WithPatience tunes the bound). Through
// NewMutex this is the drop-in form that matches sync.Mutex's
// uncontended latency while keeping the queue's NUMA policy under
// load:
//
//	var mu = repro.MustNewMutex("cna-fissile") // uncontended: one CAS
//
// The trade-off is short-term fairness: fast-path acquirers can
// overtake queued waiters within the patience window (see
// internal/locks/fissile).
//
// # Concurrency restriction
//
// The "-cr" suffix ("std-cr", "cna-cr", "mcs-cr", ...) wraps a lock in
// a generic concurrency-restriction gate (internal/locks/gcr, after
// Dice & Kogan 2019's GCR): a socket-sized active set circulates over
// the inner lock while surplus arrivals park on a passive list,
// rotated back in for long-term fairness. It is the spelling to reach
// for under deep oversubscription — when goroutines hammering one hot
// lock outnumber cores many times over, a gated lock holds its peak
// throughput where the unwrapped lock (sync.Mutex included) collapses.
// WithActiveSet and WithRotateEvery tune the gate:
//
//	var mu = repro.MustNewMutex("std-cr") // sync.Mutex + admission control
//
// # Reader-writer locks
//
// Every queue-lock family also registers a NUMA-aware reader-writer
// form under the "-rw" suffix ("mcs-rw", "cna-rw", "hmcs-rw", ...):
// per-socket cache-line-padded read indicators in front of the base
// lock as the writer gate, so read-mostly workloads never bounce a
// shared reader counter between sockets. NewRWMutex returns the
// sync.RWMutex method shape for any of them ("std-rw" included, as
// the runtime baseline):
//
//	var mu = repro.MustNewRWMutex("cna-rw")
//	mu.RLock(); ...read...; mu.RUnlock()
//	mu.Lock();  ...write...; mu.Unlock()
//
// Writers are preferred by default (a waiting writer pauses new reader
// admission, so reader floods cannot starve it); WithReaderNeutral
// restores reader-neutral admission. Both read and write sides carry
// the timed faces (RLockTimeout, LockTimeout, LockContext), and the
// *Thread form is available through Build as locks implementing
// RWMutex.
//
// # Bounded-wait acquisition
//
// Every lock also implements LockTimeout — a timed acquire that gives
// up cleanly on expiry (queue locks abandon their queue position via a
// Scott-&-Scherer-style protocol; see internal/locks.TimedMutex for
// the layer-by-layer semantics). The native form adds context support,
// directly on every NewMutex result:
//
//	if mu.LockTimeout(time.Millisecond) { ...; mu.Unlock() }
//	if err := mu.LockContext(ctx); err == nil { ...; mu.Unlock() }
//
// The CNA-specific constructors (NewCNA, NewCNAWithOptions) remain for
// callers that want the concrete *CNA type, e.g. to read Stats(). A CNA
// lock is its lock struct alone: its queue nodes are the threads' own
// (each Thread carries one per nesting depth), so a million CNA locks
// cost a million lock structs. Statistics collection is opt-in — build
// with WithStats(true) (or call EnableStats) before sharing a lock whose
// counters you intend to read; default-built locks write no counters on
// any path.
//
// See examples/ for runnable programs and cmd/reproduce for the paper's
// evaluation.
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/gonative"
	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/qspin"
	"repro/internal/waiter"
)

// Mutex is the uniform lock interface implemented by every user-space
// lock in this repository.
type Mutex = locks.Mutex

// NativeMutex is the goroutine-native lock contract: a sync.Locker
// with TryLock and Name, usable from plain Go code with no *Thread in
// sight. NewMutex returns one for any registered lock.
type NativeMutex = locks.NativeMutex

// TimedMutex is a Mutex with bounded-wait acquisition: LockTimeout
// returns false on expiry, leaving the lock untouched. Every
// registered lock implements it; the give-up mechanism is
// layer-specific and documented on internal/locks.TimedMutex.
type TimedMutex = locks.TimedMutex

// TimedNativeMutex is the goroutine-native bounded-wait contract: a
// NativeMutex with LockTimeout(d) and LockContext(ctx). It is what
// NewMutex returns, so the timed forms need no type assertion.
type TimedNativeMutex = locks.TimedNativeMutex

// RWMutex is the reader-writer contract in *Thread form: a TimedMutex
// (the write side) plus RLock/RUnlock/RTryLock/RLockTimeout. Every
// "-rw" registered lock builds one.
type RWMutex = locks.RWMutex

// NativeRWMutex is the goroutine-native reader-writer contract — the
// sync.RWMutex method shape plus the timed faces on both sides. It is
// what NewRWMutex returns.
type NativeRWMutex = locks.NativeRWMutex

// Thread is a worker's identity (dense id, NUMA socket, private PRNG),
// passed to every Lock/Unlock call.
type Thread = locks.Thread

// NewThread returns a Thread with the given id and socket.
func NewThread(id, socket int) *Thread { return locks.NewThread(id, socket) }

// ---- Registry-first construction ----

// Env carries the construction-time environment for Build: the
// thread-ID bound and the NUMA topology.
type Env = lockreg.Env

// LockSpec describes one registered algorithm (name, aliases,
// description, NUMA-awareness, constructor).
type LockSpec = lockreg.Spec

// BuildOption tunes an algorithm's policy knobs; see the With*
// functions. Options an algorithm does not understand are ignored.
type BuildOption = lockreg.Option

// Locks returns every registered lock algorithm in registration order
// (the base algorithms, their -park variants, the stdlib baselines,
// then the -rw, -fissile and -cr families).
func Locks() []LockSpec { return lockreg.All() }

// LockNames returns the canonical algorithm names, in the same stable
// order as Locks().
func LockNames() []string { return lockreg.Names() }

// LookupLock resolves a case-insensitive name or alias to its spec.
func LookupLock(name string) (LockSpec, bool) { return lockreg.Lookup(name) }

// Build constructs the named lock in the given environment. Unknown
// names return an error listing every registered spelling.
func Build(name string, env Env, opts ...BuildOption) (Mutex, error) {
	return lockreg.Build(name, env, opts...)
}

// MustBuild is Build for statically known names; it panics on unknown
// ones.
func MustBuild(name string, env Env, opts ...BuildOption) Mutex {
	return lockreg.MustBuild(name, env, opts...)
}

// ---- Goroutine-native construction (drop-in sync.Mutex replacement) ----

// NewMutex builds the named lock in goroutine-native form: a
// sync.Locker (with TryLock) that plain Go code can use exactly like a
// sync.Mutex — goroutines may migrate freely, and a different
// goroutine may Unlock, under the same rules as sync.Mutex. The slot
// pool behind it is sized for several concurrent acquisitions per
// processor; acquisitions beyond that wait briefly for a slot, they
// never corrupt queue nodes. Options work as in Build ("cna" +
// WithThreshold, "mcs" + WithWait(SpinThenParkWait()), ...); prefer
// the "*-park" spellings when goroutines can outnumber processors.
func NewMutex(name string, opts ...BuildOption) (TimedNativeMutex, error) {
	return gonative.New(name, Env{}, opts...)
}

// NewMutexIn is NewMutex with an explicit environment: MaxThreads
// bounds concurrent acquisitions (the slot-pool capacity), and Topology
// shapes the pool's socket striping and the lock's NUMA layout.
func NewMutexIn(name string, env Env, opts ...BuildOption) (TimedNativeMutex, error) {
	return gonative.New(name, env, opts...)
}

// MustNewMutex is NewMutex for statically known names.
func MustNewMutex(name string, opts ...BuildOption) TimedNativeMutex {
	return gonative.MustNew(name, Env{}, opts...)
}

// NewRWMutex builds the named reader-writer lock in goroutine-native
// form: the sync.RWMutex method shape (RLock/RUnlock/RLocker alongside
// Lock/TryLock/Unlock and the timed faces) over any "-rw" registered
// lock, or "std-rw" for the runtime baseline. Read holds follow
// sync.RWMutex rules — a different goroutine may RUnlock. Names
// without a read side return an error pointing at their "-rw" form.
func NewRWMutex(name string, opts ...BuildOption) (NativeRWMutex, error) {
	return gonative.NewRW(name, Env{}, opts...)
}

// NewRWMutexIn is NewRWMutex with an explicit environment. Read holds
// take no slot; the slot pool bounds concurrent writers plus readers
// waiting for a writer, and those beyond the capacity wait for a slot,
// not for the lock.
func NewRWMutexIn(name string, env Env, opts ...BuildOption) (NativeRWMutex, error) {
	return gonative.NewRW(name, env, opts...)
}

// MustNewRWMutex is NewRWMutex for statically known names.
func MustNewRWMutex(name string, opts ...BuildOption) NativeRWMutex {
	return gonative.MustNewRW(name, Env{}, opts...)
}

// LockWithContext acquires m unless ctx is cancelled or its deadline
// passes first: nil means the mutex is held; otherwise the context's
// error is returned and the mutex is untouched. Cancellation (as
// opposed to deadline expiry) can lag by up to a millisecond — the
// wait is chunked into timed acquires with a check between chunks.
func LockWithContext(ctx context.Context, m TimedNativeMutex) error {
	return gonative.LockWithContext(ctx, m)
}

// Functional options, re-exported from internal/lockreg as wrapper
// functions (not vars, so callers cannot rebind them). Defaults are the
// paper's settings; see each function's doc there.

// WithThreshold sets the long-term-fairness mask (CNA's THRESHOLD,
// MCSCR's revive mask; paper default 0xffff).
func WithThreshold(mask uint64) BuildOption { return lockreg.WithThreshold(mask) }

// WithShuffleReduction toggles CNA's Section 6 shuffle reduction.
func WithShuffleReduction(on bool) BuildOption { return lockreg.WithShuffleReduction(on) }

// WithFairnessCountdown toggles CNA's Section 6 countdown variant of
// keep_lock_local.
func WithFairnessCountdown(on bool) BuildOption { return lockreg.WithFairnessCountdown(on) }

// WithBackoff sets the BO-TAS backoff window in pause units.
func WithBackoff(min, max uint) BuildOption { return lockreg.WithBackoff(min, max) }

// WithMaxLocalPasses bounds consecutive same-socket handovers for
// C-BO-MCS and HMCS (default 64).
func WithMaxLocalPasses(n int) BuildOption { return lockreg.WithMaxLocalPasses(n) }

// WithMinActive sets MCSCR's floor on circulating threads.
func WithMinActive(n int) BuildOption { return lockreg.WithMinActive(n) }

// WaitPolicy decides what a lock waiter does until its turn comes: spin
// (the default), spin briefly then park on a per-node semaphore, or
// park immediately. See internal/waiter.
type WaitPolicy = waiter.Policy

// SpinWait returns the default all-spin waiting policy (the paper's
// kernel waiters).
func SpinWait() WaitPolicy { return waiter.Spin{} }

// SpinThenParkWait returns the bounded-spin-then-block policy — the
// production choice when threads outnumber cores. The registered
// "*-park" lock variants are built with it.
func SpinThenParkWait() WaitPolicy { return waiter.SpinThenPark{} }

// ParkWait returns the block-immediately policy (the oversubscribed
// extreme).
func ParkWait() WaitPolicy { return waiter.Park{} }

// WithWait selects the waiting policy for locks that support one; the
// lock's Name() gains the policy's suffix ("MCS-park"). Locks that
// queue no waiters (the flat spin locks and the stdlib baselines)
// ignore it.
func WithWait(p WaitPolicy) BuildOption { return lockreg.WithWait(p) }

// WithPatience tunes the "-fissile" composites' anti-starvation bound:
// how many probe rounds the head queue waiter tolerates fast-path
// barging before it bars the fast path. Smaller is fairer, larger is
// faster under bursty uncontended traffic. Non-fissile locks ignore
// the option.
func WithPatience(n int) BuildOption { return lockreg.WithPatience(n) }

// WithActiveSet sizes the "-cr" composites' admission gate: how many
// threads may hold membership and circulate over the inner lock at
// once (default one slot per socket plus one). Surplus arrivals are
// culled onto the passive parked list. Non-CR locks ignore the option.
func WithActiveSet(n int) BuildOption { return lockreg.WithActiveSet(n) }

// WithRotateEvery sets the "-cr" composites' rotation period: every
// n-th departure hands the departing member's admission slot to the
// oldest passive waiter, bounding any waiter's exile. Smaller is
// fairer, larger preserves more cache affinity in the active set.
// Non-CR locks ignore the option.
func WithRotateEvery(n int) BuildOption { return lockreg.WithRotateEvery(n) }

// WithReaderNeutral switches a "-rw" lock from the default writer
// preference (a waiting writer pauses new reader admission) to
// reader-neutral admission, where readers pass whenever no writer is
// inside. Neutral admission maximizes read throughput but lets a
// sustained reader flood delay writers indefinitely.
func WithReaderNeutral(on bool) BuildOption { return lockreg.WithReaderNeutral(on) }

// WithStats toggles holder-side statistics collection (handover
// locality, secondary-queue traffic). Statistics default to off so a
// default-built lock's hot paths perform no counter writes; pass
// WithStats(true) before sharing the lock when you intend to read
// Stats()/Handovers().
func WithStats(on bool) BuildOption { return lockreg.WithStats(on) }

// ---- CNA concrete types (for callers that need Stats) ----

// CNA is the paper's compact NUMA-aware lock.
type CNA = core.Lock

// CNAOptions are the CNA policy knobs (fairness threshold, shuffle
// reduction).
type CNAOptions = core.Options

// NewCNA returns a CNA lock with the paper's default options. It queues
// the nodes of the Threads that use it, like the kernel's per-CPU
// qspinlock nodes, so any number of threads may share it.
func NewCNA() *CNA { return core.New() }

// NewCNAWithOptions returns a CNA lock with explicit options.
func NewCNAWithOptions(opts CNAOptions) *CNA { return core.NewWithOptions(opts) }

// DefaultCNAOptions is the paper's configuration (THRESHOLD = 0xffff).
func DefaultCNAOptions() CNAOptions { return core.DefaultOptions() }

// OptimizedCNAOptions enables the Section 6 shuffle-reduction
// optimisation ("CNA-opt").
func OptimizedCNAOptions() CNAOptions { return core.OptimizedOptions() }

// NewMCS returns the MCS baseline lock.
func NewMCS() Mutex { return locks.NewMCS() }

// ---- Machine shapes ----

// Topology describes a NUMA machine (sockets × cores × threads).
type Topology = numa.Topology

// TwoSocketXeonE5 is the paper's primary machine shape (72 CPUs).
func TwoSocketXeonE5() Topology { return numa.TwoSocketXeonE5() }

// FourSocketXeonE7 is the paper's 4-socket machine shape (144 CPUs).
func FourSocketXeonE7() Topology { return numa.FourSocketXeonE7() }

// ---- Kernel-style qspinlock ----

// SpinLock is the 4-byte Linux-kernel-style qspinlock.
type SpinLock = qspin.SpinLock

// SpinDomain holds per-CPU queue nodes and the slow-path policy shared
// by every SpinLock used with it.
type SpinDomain = qspin.Domain

// NewSpinDomain builds a qspinlock domain; cna selects the paper's CNA
// slow path in place of the stock MCS one.
func NewSpinDomain(topo Topology, cna bool) *SpinDomain {
	p := qspin.PolicyStock
	if cna {
		p = qspin.PolicyCNA
	}
	return qspin.NewDomain(topo, p)
}
