package kernelsim

import (
	"repro/internal/locks"
	"repro/internal/qspin"
)

// Locking is the spinlock substrate the mini-VFS runs on. The kernel
// build runs every lock in the subsystem on qspin spinlocks from one
// shared Domain (DomainLocking); the benchmark pipeline swaps in any
// registered user-space lock (MutexLocking) so the same VFS contention
// points — lockref.lock, files_struct.file_lock, flc_lock — can be
// measured over every algorithm in the registry.
type Locking interface {
	// NewLock returns a fresh lock for one lock site (one dentry
	// lockref, one fd table, one file_lock_context).
	NewLock() Lock
}

// Lock is one VFS lock site, acquired on behalf of a virtual CPU. The
// cpu index plays the role the per-CPU context plays in the kernel: it
// selects the acquiring context's queue-node storage. Callers must not
// share one cpu index between concurrently running goroutines.
type Lock interface {
	Acquire(cpu int)
	Release(cpu int)
}

// DomainLocking runs the VFS on 4-byte qspin spinlocks drawn from one
// shared Domain, as in the kernel: switching the Domain's policy
// switches every lock in the subsystem between the stock MCS slow path
// and CNA.
type DomainLocking struct {
	D *qspin.Domain
}

// NewLock returns a fresh qspin spinlock bound to the shared domain.
func (dl DomainLocking) NewLock() Lock { return &domainLock{d: dl.D} }

type domainLock struct {
	d *qspin.Domain
	l qspin.SpinLock
}

func (l *domainLock) Acquire(cpu int) { l.d.Lock(&l.l, cpu) }
func (l *domainLock) Release(int)     { l.l.Unlock() }

// MutexLocking runs the VFS on user-space locks: one locks.Mutex per
// lock site, one locks.Thread per virtual CPU. All lock sites share the
// thread contexts, which is safe because a Thread's queue nodes serve
// whichever lock it acquires (one node per nesting depth) and a cpu
// index is only ever driven by one goroutine at a time.
type MutexLocking struct {
	newLock func() locks.Mutex
	threads []*locks.Thread
}

// NewMutexLocking builds a Locking over the given lock constructor for
// cpus virtual CPUs; socketOf maps a cpu index to its NUMA socket (nil
// places every cpu on socket 0).
func NewMutexLocking(newLock func() locks.Mutex, cpus int, socketOf func(int) int) *MutexLocking {
	if cpus < 1 {
		cpus = 1
	}
	ths := make([]*locks.Thread, cpus)
	for i := range ths {
		socket := 0
		if socketOf != nil {
			socket = socketOf(i)
		}
		ths[i] = locks.NewThread(i, socket)
	}
	return &MutexLocking{newLock: newLock, threads: ths}
}

// NewLock builds a fresh mutex for one lock site.
func (ml *MutexLocking) NewLock() Lock {
	return &mutexLock{m: ml.newLock(), threads: ml.threads}
}

// BindThread substitutes the caller's own thread context for the
// adapter-created one at index t.ID. Callers that already carry a
// locks.Thread per worker (the benchmark harness) bind it before
// driving VFS operations, so socket identity follows the caller's
// actual placement instead of the socketOf map NewMutexLocking was
// built with. Each index must only ever be bound and used by one
// goroutine at a time (the same contract as the cpu argument).
//
// BindThread is safe to call per operation: after the first bind the
// slot is only read, so the shared slice's cache line stays in Shared
// state instead of ping-ponging between workers on every op.
func (ml *MutexLocking) BindThread(t *locks.Thread) {
	if t.ID >= 0 && t.ID < len(ml.threads) && ml.threads[t.ID] != t {
		ml.threads[t.ID] = t
	}
}

type mutexLock struct {
	m       locks.Mutex
	threads []*locks.Thread
}

func (l *mutexLock) Acquire(cpu int) { l.m.Lock(l.threads[cpu]) }
func (l *mutexLock) Release(cpu int) { l.m.Unlock(l.threads[cpu]) }
