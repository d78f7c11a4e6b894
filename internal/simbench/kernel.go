package simbench

import (
	"repro/internal/memsim"
	"repro/internal/simlocks"
)

// Kernel-side workloads run on the simulated qspinlock (stock MCS slow
// path vs CNA slow path), matching Section 7.2: "In the kernel, we
// compare the existing MCS-based qspinlock implementation to the new one
// based on CNA."

// LocktortureConfig models the locktorture kernel module: threads
// repeatedly acquire and release a spin lock "with occasional short
// delays ('to emulate likely code') and occasional long delays ('to
// force massive contention') inside the critical section".
type LocktortureConfig struct {
	// ShortDelayNs and ShortPermille: the occasional short delay.
	ShortDelayNs  uint64
	ShortPermille int
	// LongDelayNs and LongPerMillion: the rare long delay.
	LongDelayNs    uint64
	LongPerMillion int
	// Lockstat adds the paper's lockstat-enabled variant: "after each
	// lock acquisition, lockstat updates several shared variables, e.g.,
	// to keep track of the last CPU on which a given lock instance was
	// acquired" — i.e., real shared-data writes inside the critical
	// section.
	Lockstat      bool
	LockstatLines int
}

// DefaultLocktorture mirrors the module's spin-lock write stressor: the
// short "likely code" delay strikes often enough that critical sections,
// not handovers, dominate the op — which is why the paper's plain
// locktorture gap is modest (14% at 70 threads) until lockstat's
// shared-data writes enter the critical section.
func DefaultLocktorture(lockstat bool) LocktortureConfig {
	return LocktortureConfig{
		ShortDelayNs:   4000,
		ShortPermille:  300,
		LongDelayNs:    60000,
		LongPerMillion: 50,
		Lockstat:       lockstat,
		LockstatLines:  3,
	}
}

// Locktorture builds the locktorture workload over a simulated
// qspinlock; cna selects the CNA slow path.
func Locktorture(cfg LocktortureConfig, cna bool) Builder {
	return func(s *memsim.Sim, threads int) OpFunc {
		l := simlocks.NewQSpin(s, threads, cna)
		stat := newSharedPool(s, 4)
		return func(th *memsim.T, op int) {
			l.Lock(th)
			if cfg.Lockstat {
				stat.writeSome(th, cfg.LockstatLines)
			}
			r := th.RNG().Next() % 1_000_000
			switch {
			case r < uint64(cfg.LongPerMillion):
				th.Work(cfg.LongDelayNs)
			case r < uint64(cfg.LongPerMillion)+uint64(cfg.ShortPermille)*1000:
				th.Work(cfg.ShortDelayNs)
			default:
				th.Work(60) // the bare "likely code" body
			}
			l.Unlock(th)
			th.Work(300) // torture-loop bookkeeping between acquisitions
		}
	}
}

// WISBench names a will-it-scale microbenchmark (Section 7.2.2).
type WISBench string

// The four benchmarks of Figure 15, with Table 1's contention points.
const (
	// WISLock1: threads repeatedly fcntl-lock/unlock separate files;
	// contends files_struct.file_lock from __alloc_fd and fcntl_setlk.
	WISLock1 WISBench = "lock1_threads"
	// WISLock2: same as lock1 but one shared file; contends
	// file_lock_context.flc_lock from posix_lock_inode.
	WISLock2 WISBench = "lock2_threads"
	// WISOpen1: threads open/close separate files in the same directory;
	// contends files_struct.file_lock (__alloc_fd, __close_fd) and the
	// shared directory dentry's lockref.lock (dput, d_alloc,
	// lockref_get_not_zero, lockref_get_not_dead).
	WISOpen1 WISBench = "open1_threads"
	// WISOpen2: open/close in per-thread directories; only
	// files_struct.file_lock contends.
	WISOpen2 WISBench = "open2_threads"
)

// AllWISBenches lists Figure 15's panels in order.
func AllWISBenches() []WISBench { return []WISBench{WISLock1, WISLock2, WISOpen1, WISOpen2} }

// wisParams captures each benchmark's op structure: how many short
// critical sections it takes on which contended locks, and how much
// lock-free syscall work surrounds them.
type wisParams struct {
	// fileLockCS counts acquisitions of files_struct.file_lock per op.
	fileLockCS int
	// fileLockNs is the hold time of each (fd bitmap search/update).
	fileLockNs uint64
	fileLines  int
	// flcCS / lockrefCS likewise for flc_lock and the dentry lockref.
	flcCS     int
	flcNs     uint64
	flcLines  int
	lockrefCS int
	lockrefNs uint64
	// externalNs is the uncontended remainder of the syscall path.
	externalNs uint64
}

func paramsFor(b WISBench) wisParams {
	switch b {
	case WISLock1:
		return wisParams{fileLockCS: 2, fileLockNs: 90, fileLines: 2, externalNs: 700}
	case WISLock2:
		return wisParams{flcCS: 1, flcNs: 260, flcLines: 3, externalNs: 800}
	case WISOpen1:
		return wisParams{fileLockCS: 2, fileLockNs: 90, fileLines: 2,
			lockrefCS: 4, lockrefNs: 70, externalNs: 1500}
	case WISOpen2:
		return wisParams{fileLockCS: 2, fileLockNs: 90, fileLines: 2, externalNs: 1500}
	}
	panic("simbench: unknown will-it-scale benchmark " + string(b))
}

// ContentionRow is one entry of the lockstat-style contention report the
// paper summarises in Table 1: a kernel lock, the call sites that take
// it in this benchmark, and how often acquisitions hit the queue.
type ContentionRow struct {
	Lock      string
	CallSites []string
	lock      *simlocks.QSpin
}

// Total returns the lock's acquisition count.
func (r *ContentionRow) Total() uint64 { return r.lock.Acquisitions() }

// Slow returns how many acquisitions entered the queue slow path.
func (r *ContentionRow) Slow() uint64 { return r.lock.SlowPathCount() }

// Contended reports whether the lock saw meaningful queueing (>1% of
// acquisitions reached the slow path).
func (r *ContentionRow) Contended() bool {
	return r.Total() > 0 && float64(r.Slow()) > 0.01*float64(r.Total())
}

// tableOneCallSites reproduces Table 1's call-site lists.
func tableOneCallSites(b WISBench) (file, flc, lockref []string) {
	switch b {
	case WISLock1:
		return []string{"__alloc_fd", "fcntl_setlk"}, nil, nil
	case WISLock2:
		return nil, []string{"posix_lock_inode"}, nil
	case WISOpen1:
		return []string{"__alloc_fd", "__close_fd"}, nil,
			[]string{"dput", "d_alloc", "lockref_get_not_zero", "lockref_get_not_dead"}
	case WISOpen2:
		return []string{"__alloc_fd", "__close_fd"}, nil, nil
	}
	return nil, nil, nil
}

// WillItScale builds the named benchmark over simulated qspinlocks.
func WillItScale(b WISBench, cna bool) Builder {
	return WillItScaleInstrumented(b, cna, nil)
}

// WillItScaleInstrumented is WillItScale with a contention report: after
// the simulation runs, *report holds one row per simulated kernel lock
// (Table 1's content, measured rather than transcribed). Its Builder
// writes *report on every call, which breaks the Builder contract when
// two runs share it: give each run its own report, as TableOne does, and
// never pass the Builder to Sweep.
func WillItScaleInstrumented(b WISBench, cna bool, report *[]ContentionRow) Builder {
	p := paramsFor(b)
	return func(s *memsim.Sim, threads int) OpFunc {
		fileLock := simlocks.NewQSpin(s, threads, cna)
		flcLock := simlocks.NewQSpin(s, threads, cna)
		lockref := simlocks.NewQSpin(s, threads, cna)
		if report != nil {
			fileCS, flcCS, lrCS := tableOneCallSites(b)
			*report = nil
			if p.fileLockCS > 0 {
				*report = append(*report, ContentionRow{Lock: "files_struct.file_lock", CallSites: fileCS, lock: fileLock})
			}
			if p.flcCS > 0 {
				*report = append(*report, ContentionRow{Lock: "file_lock_context.flc_lock", CallSites: flcCS, lock: flcLock})
			}
			if p.lockrefCS > 0 {
				*report = append(*report, ContentionRow{Lock: "lockref.lock", CallSites: lrCS, lock: lockref})
			}
		}
		fdTable := newSharedPool(s, 8)
		flcData := newSharedPool(s, 4)
		dentry := newSharedPool(s, 2)
		return func(th *memsim.T, op int) {
			for i := 0; i < p.fileLockCS; i++ {
				fileLock.Lock(th)
				fdTable.writeSome(th, p.fileLines)
				th.Work(p.fileLockNs)
				fileLock.Unlock(th)
			}
			for i := 0; i < p.flcCS; i++ {
				flcLock.Lock(th)
				flcData.writeSome(th, p.flcLines)
				th.Work(p.flcNs)
				flcLock.Unlock(th)
			}
			for i := 0; i < p.lockrefCS; i++ {
				lockref.Lock(th)
				dentry.writeSome(th, 1)
				th.Work(p.lockrefNs)
				lockref.Unlock(th)
			}
			th.Work(p.externalNs)
		}
	}
}
