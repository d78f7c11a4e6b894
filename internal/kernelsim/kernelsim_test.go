package kernelsim

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/qspin"
)

func newDomain(policy qspin.Policy) *qspin.Domain {
	return qspin.NewDomain(numa.TwoSocketXeonE5(), policy)
}

func newLocking(policy qspin.Policy) Locking {
	return DomainLocking{D: newDomain(policy)}
}

func TestLockrefBasics(t *testing.T) {
	l := NewLockref(newLocking(qspin.PolicyCNA))
	l.Get(0)
	l.Get(0)
	if n := l.Count(0); n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
	if !l.GetNotZero(0) {
		t.Fatal("GetNotZero on positive count failed")
	}
	if n := l.Put(0); n != 2 {
		t.Fatalf("Put returned %d, want 2", n)
	}
	l.Put(0)
	l.Put(0)
	if l.GetNotZero(0) {
		t.Fatal("GetNotZero on zero count succeeded")
	}
	l.MarkDead(0)
	if l.GetNotDead(0) {
		t.Fatal("GetNotDead on dead object succeeded")
	}
}

func TestLockrefConcurrentBalance(t *testing.T) {
	l := NewLockref(newLocking(qspin.PolicyCNA))
	const threads, iters = 8, 300
	var wg sync.WaitGroup
	for c := 0; c < threads; c++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Get(cpu)
				l.Put(cpu)
			}
		}(c)
	}
	wg.Wait()
	if n := l.Count(0); n != 0 {
		t.Fatalf("count = %d after balanced get/put", n)
	}
}

// TestLockrefOnMutexLocking runs the concurrent refcount balance on a
// user-space lock from internal/locks, pinning the MutexLocking adapter
// the benchmark pipeline uses to sweep registered locks over the VFS.
func TestLockrefOnMutexLocking(t *testing.T) {
	const threads, iters = 8, 300
	topo := numa.TwoSocketXeonE5()
	lk := NewMutexLocking(func() locks.Mutex { return locks.NewMCS() }, threads, topo.SocketOf)
	l := NewLockref(lk)
	var wg sync.WaitGroup
	for c := 0; c < threads; c++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Get(cpu)
				l.Put(cpu)
			}
		}(c)
	}
	wg.Wait()
	if n := l.Count(0); n != 0 {
		t.Fatalf("count = %d after balanced get/put", n)
	}
}

func TestAllocFDLowestFree(t *testing.T) {
	fs := NewFilesStruct(newLocking(qspin.PolicyStock), 128)
	f := &File{}
	for want := 0; want < 5; want++ {
		fd, err := fs.AllocFD(0, f)
		if err != nil || fd != want {
			t.Fatalf("AllocFD = %d,%v want %d", fd, err, want)
		}
	}
	// Free fd 2; the next alloc must reuse it (lowest-free semantics).
	if _, err := fs.CloseFD(0, 2); err != nil {
		t.Fatal(err)
	}
	if fd, _ := fs.AllocFD(0, f); fd != 2 {
		t.Fatalf("freed fd not reused: got %d", fd)
	}
}

func TestFDTableExhaustion(t *testing.T) {
	fs := NewFilesStruct(newLocking(qspin.PolicyStock), 4)
	f := &File{}
	for i := 0; i < 4; i++ {
		if _, err := fs.AllocFD(0, f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.AllocFD(0, f); err == nil {
		t.Fatal("over-allocation succeeded")
	}
}

func TestCloseBadFD(t *testing.T) {
	fs := NewFilesStruct(newLocking(qspin.PolicyStock), 8)
	if _, err := fs.CloseFD(0, 3); err == nil {
		t.Fatal("closing unopened fd succeeded")
	}
	if _, err := fs.CloseFD(0, -1); err == nil {
		t.Fatal("closing negative fd succeeded")
	}
}

func TestPosixLockConflicts(t *testing.T) {
	ino := NewInode(newLocking(qspin.PolicyCNA), 1)
	c := ino.LockContext()

	// Two readers overlap: fine.
	if err := c.SetLk(0, PosixLock{Owner: 1, Type: ReadLock, Start: 0, End: 10}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLk(0, PosixLock{Owner: 2, Type: ReadLock, Start: 5, End: 15}); err != nil {
		t.Fatalf("overlapping read locks conflicted: %v", err)
	}
	// A writer overlapping a foreign reader: EAGAIN.
	if err := c.SetLk(0, PosixLock{Owner: 3, Type: WriteLock, Start: 8, End: 9}); err == nil {
		t.Fatal("write lock over foreign read lock succeeded")
	}
	// A writer on a disjoint range: fine.
	if err := c.SetLk(0, PosixLock{Owner: 3, Type: WriteLock, Start: 100, End: 110}); err != nil {
		t.Fatal(err)
	}
	// A reader overlapping the foreign writer: EAGAIN.
	if err := c.SetLk(0, PosixLock{Owner: 1, Type: ReadLock, Start: 105, End: 106}); err == nil {
		t.Fatal("read lock over foreign write lock succeeded")
	}
	// Unlock clears the writer; now the reader succeeds.
	c.Unlock(0, 3, 100, 110)
	if err := c.SetLk(0, PosixLock{Owner: 1, Type: ReadLock, Start: 105, End: 106}); err != nil {
		t.Fatal(err)
	}
}

func TestPosixSameOwnerReplacement(t *testing.T) {
	c := NewInode(newLocking(qspin.PolicyStock), 1).LockContext()
	if err := c.SetLk(0, PosixLock{Owner: 1, Type: ReadLock, Start: 0, End: 10}); err != nil {
		t.Fatal(err)
	}
	// Same owner upgrades to write over the same range: no conflict,
	// and the old lock is replaced, not duplicated.
	if err := c.SetLk(0, PosixLock{Owner: 1, Type: WriteLock, Start: 0, End: 10}); err != nil {
		t.Fatal(err)
	}
	if n := c.Count(0); n != 1 {
		t.Fatalf("lock count = %d, want 1", n)
	}
}

func TestLockContextLazyAllocation(t *testing.T) {
	ino := NewInode(newLocking(qspin.PolicyStock), 7)
	c1 := ino.LockContext()
	c2 := ino.LockContext()
	if c1 != c2 {
		t.Fatal("LockContext not stable")
	}
}

func TestOpenCloseSharedDirectory(t *testing.T) {
	// The open1_threads structure: every thread opens/closes its own
	// file in one shared directory.
	for _, policy := range []qspin.Policy{qspin.PolicyStock, qspin.PolicyCNA} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			k := NewKernel(newDomain(policy))
			fs := k.NewFiles(256)
			dir := k.LookupOrCreateDir(0, k.Root, "tmp")
			baseRef := dir.Ref.Count(0)

			const threads, iters = 8, 150
			var wg sync.WaitGroup
			errs := make(chan error, threads)
			for c := 0; c < threads; c++ {
				wg.Add(1)
				go func(cpu int) {
					defer wg.Done()
					name := fmt.Sprintf("file-%d", cpu)
					for i := 0; i < iters; i++ {
						fd, err := k.Open(cpu, fs, dir, name)
						if err != nil {
							errs <- err
							return
						}
						if err := k.Close(cpu, fs, fd); err != nil {
							errs <- err
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if n := fs.OpenCount(0); n != 0 {
				t.Fatalf("leaked %d fds", n)
			}
			// The directory's refcount must balance (every Open's
			// path-walk ref was dropped).
			if got := dir.Ref.Count(0); got != baseRef {
				t.Fatalf("dir refcount %d, want %d", got, baseRef)
			}
			// Each file dentry holds its initial ref only.
			dir.Ref.lock.Acquire(0)
			for name, de := range dir.child {
				if de.Ref.count != 1 {
					t.Errorf("dentry %q refcount %d, want 1", name, de.Ref.count)
				}
			}
			dir.Ref.lock.Release(0)
		})
	}
}

// TestKernelOnMutexLocking runs the open1_threads structure on a
// registry-style user-space lock, exercising every VFS lock site (dentry
// lockrefs, file_lock, flc_lock) through the MutexLocking adapter.
func TestKernelOnMutexLocking(t *testing.T) {
	const threads, iters = 4, 100
	topo := numa.TwoSocketXeonE5()
	lk := NewMutexLocking(func() locks.Mutex { return locks.NewMCS() }, threads, topo.SocketOf)
	k := NewKernelOn(lk)
	fs := k.NewFiles(256)
	dir := k.LookupOrCreateDir(0, k.Root, "tmp")
	baseRef := dir.Ref.Count(0)

	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for c := 0; c < threads; c++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			name := fmt.Sprintf("file-%d", cpu)
			for i := 0; i < iters; i++ {
				fd, err := k.Open(cpu, fs, dir, name)
				if err != nil {
					errs <- err
					return
				}
				lkk := PosixLock{Owner: cpu, Type: WriteLock, Start: 0, End: 8}
				if err := k.FcntlSetLk(cpu, fs, fd, lkk); err != nil {
					errs <- err
					return
				}
				if err := k.FcntlUnlock(cpu, fs, fd, cpu, 0, 8); err != nil {
					errs <- err
					return
				}
				if err := k.Close(cpu, fs, fd); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := fs.OpenCount(0); n != 0 {
		t.Fatalf("leaked %d fds", n)
	}
	if got := dir.Ref.Count(0); got != baseRef {
		t.Fatalf("dir refcount %d, want %d", got, baseRef)
	}
}

func TestFcntlLockUnlockLoop(t *testing.T) {
	// The lock2_threads structure: all threads lock/unlock ranges of the
	// same file.
	k := NewKernel(newDomain(qspin.PolicyCNA))
	fs := k.NewFiles(64)
	dir := k.LookupOrCreateDir(0, k.Root, "tmp")
	fd, err := k.Open(0, fs, dir, "shared")
	if err != nil {
		t.Fatal(err)
	}

	const threads, iters = 6, 200
	var wg sync.WaitGroup
	for c := 0; c < threads; c++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			// Disjoint per-thread ranges: every SetLk must succeed.
			start := uint64(cpu * 100)
			for i := 0; i < iters; i++ {
				lk := PosixLock{Owner: cpu, Type: WriteLock, Start: start, End: start + 10}
				if err := k.FcntlSetLk(cpu, fs, fd, lk); err != nil {
					t.Errorf("SetLk: %v", err)
					return
				}
				if err := k.FcntlUnlock(cpu, fs, fd, cpu, start, start+10); err != nil {
					t.Errorf("Unlock: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	file, _ := fs.Lookup(0, fd)
	if n := file.Inode().LockContext().Count(0); n != 0 {
		t.Fatalf("%d record locks leaked", n)
	}
}

func TestOpenReusesDentry(t *testing.T) {
	k := NewKernel(newDomain(qspin.PolicyStock))
	fs := k.NewFiles(16)
	dir := k.LookupOrCreateDir(0, k.Root, "etc")
	fd1, err := k.Open(0, fs, dir, "conf")
	if err != nil {
		t.Fatal(err)
	}
	fd2, err := k.Open(0, fs, dir, "conf")
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := fs.Lookup(0, fd1)
	f2, _ := fs.Lookup(0, fd2)
	if f1.Inode() != f2.Inode() {
		t.Fatal("same path produced different inodes")
	}
	if err := k.Close(0, fs, fd1); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(0, fs, fd2); err != nil {
		t.Fatal(err)
	}
}

func TestLookupOrCreateDirIdempotent(t *testing.T) {
	k := NewKernel(newDomain(qspin.PolicyStock))
	a := k.LookupOrCreateDir(0, k.Root, "a")
	b := k.LookupOrCreateDir(0, k.Root, "a")
	if a != b {
		t.Fatal("directory created twice")
	}
}

// Property: fd alloc/close sequences never hand out a live fd twice and
// close only live fds.
func TestFDAllocProperty(t *testing.T) {
	lk := newLocking(qspin.PolicyStock)
	f := func(ops []uint8) bool {
		fs := NewFilesStruct(lk, 32)
		live := map[int]bool{}
		file := &File{}
		for _, op := range ops {
			if op%2 == 0 {
				fd, err := fs.AllocFD(0, file)
				if err != nil {
					if len(live) != 32 {
						return false
					}
					continue
				}
				if live[fd] {
					return false // double allocation
				}
				live[fd] = true
			} else if len(live) > 0 {
				var fd int
				for k := range live {
					fd = k
					break
				}
				if _, err := fs.CloseFD(0, fd); err != nil {
					return false
				}
				delete(live, fd)
			}
		}
		return fs.OpenCount(0) == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
