// qspinlock: using the 4-byte kernel-style spin lock with the CNA slow
// path — the configuration the paper's Linux patch ships. A Domain holds
// the per-CPU queue nodes; every 4-byte SpinLock in the program shares
// it, so a struct with an embedded spinlock stays exactly as small as
// the kernel requires (the paper's inode/page argument).
//
// Run with: go run ./examples/qspinlock
package main

import (
	"fmt"
	"os"
	"sync"
	"unsafe"

	"repro"
)

// inode mimics a kernel object with an embedded 4-byte spinlock.
type inode struct {
	lock  repro.SpinLock // exactly 4 bytes — CNA adds nothing
	ino   uint64
	nlink uint32
}

func main() {
	topo := repro.TwoSocketXeonE5()
	domain := repro.NewSpinDomain(topo, true) // true = CNA slow path
	domain.EnableStats()                      // opt-in: this example prints path counters

	inodes := make([]inode, 1024)
	for i := range inodes {
		inodes[i].ino = uint64(i)
	}
	fmt.Printf("sizeof(SpinLock) = %d bytes (kernel limit: 4)\n", unsafe.Sizeof(inodes[0].lock))

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < 50000; i++ {
				ino := &inodes[(i*7+cpu)%len(inodes)]
				domain.Lock(&ino.lock, cpu)
				ino.nlink++
				ino.lock.Unlock()
			}
		}(w)
	}
	wg.Wait()

	var total uint64
	for i := range inodes {
		total += uint64(inodes[i].nlink)
	}
	st := domain.Stats()
	fmt.Printf("total link counts: %d (want %d)\n", total, workers*50000)
	fmt.Printf("fast path: %d, pending: %d, queued: %d\n",
		st.FastPath.Load(), st.PendingPath.Load(), st.SlowPath.Load())
	fmt.Printf("queue handovers: %d local / %d remote\n",
		st.LocalHandover.Load(), st.RemoteHandover.Load())
	if total != workers*50000 {
		os.Exit(1)
	}
}
