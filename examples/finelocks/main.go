// finelocks: the paper's motivating use case for compactness — a data
// structure with a lock per node ("it is prohibitively expensive to
// store a separate lock per node" with hierarchical NUMA-aware locks).
//
// A hash table carries one CNA lock per bucket. The queue nodes belong
// to the worker threads, not to the locks, so one million buckets cost
// one word of shared lock state each and no node storage, while
// remaining NUMA-aware under skewed contention.
//
// Run with: go run ./examples/finelocks
package main

import (
	"fmt"
	"sync"
	"unsafe"

	"repro"
)

// bucket is one hash bucket with its embedded compact lock.
type bucket struct {
	lock  *repro.CNA
	items map[uint64]uint64
}

type table struct {
	buckets []bucket
}

// newTable builds one CNA lock per bucket through the registry. Each
// lock is its lock struct alone: acquisitions queue the acquiring
// Thread's own node.
func newTable(buckets int, env repro.Env) *table {
	t := &table{buckets: make([]bucket, buckets)}
	// WithStats is opt-in instrumentation; this example reports the hot
	// bucket's handover locality at the end, so it pays for counters.
	for i := range t.buckets {
		t.buckets[i] = bucket{
			lock:  repro.MustBuild("CNA", env, repro.WithStats(true)).(*repro.CNA),
			items: make(map[uint64]uint64),
		}
	}
	return t
}

func (t *table) put(th *repro.Thread, k, v uint64) {
	b := &t.buckets[k%uint64(len(t.buckets))]
	b.lock.Lock(th)
	b.items[k] = v
	b.lock.Unlock(th)
}

func (t *table) get(th *repro.Thread, k uint64) (uint64, bool) {
	b := &t.buckets[k%uint64(len(t.buckets))]
	b.lock.Lock(th)
	v, ok := b.items[k]
	b.lock.Unlock(th)
	return v, ok
}

func main() {
	const workers = 8
	const buckets = 1 << 16
	topo := repro.TwoSocketXeonE5()
	env := repro.Env{MaxThreads: workers, Topology: topo}
	tbl := newTable(buckets, env)

	// A skewed workload: most traffic hits a handful of hot buckets,
	// which is when per-node locks contend (the paper cites Bronson et
	// al.'s BST exactly for this).
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := repro.NewThread(w, topo.SocketOf(w))
			for i := 0; i < 20000; i++ {
				var key uint64
				if i%4 != 0 {
					key = uint64(i % 3) // hot keys
				} else {
					key = uint64(i * 2654435761)
				}
				tbl.put(th, key, uint64(i))
				tbl.get(th, key)
			}
		}(w)
	}
	wg.Wait()

	var lockState uintptr
	for i := range tbl.buckets {
		lockState += unsafe.Sizeof(*tbl.buckets[i].lock)
	}
	fmt.Printf("%d buckets, each with its own NUMA-aware lock\n", buckets)
	fmt.Printf("hot bucket handovers: ")
	local, remote := tbl.buckets[0].lock.Stats().Handover.Counts()
	fmt.Printf("%d local / %d remote\n", local, remote)
	fmt.Println("the workers' own queue nodes serve every lock, like the kernel's per-CPU qspinlock nodes")
}
