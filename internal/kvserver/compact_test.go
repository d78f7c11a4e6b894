package kvserver

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/gonative"
	"repro/internal/lockreg"
	"repro/internal/numa"
)

// shardLockBytes is the heap allocated per shard lock built the way
// kvserver builds them — gonative.WrapWithPool over one shared pool of
// the given capacity, which is excluded — as the mean over a batch of
// 1024 builds, least of nine batches so that the odd allocation the
// runtime makes on its own is not charged to the lock.
func shardLockBytes(spec lockreg.Spec, capacity int) float64 {
	const batch = 1024
	pool := gonative.NewPool(capacity, numa.Topology{})
	env := lockreg.Env{MaxThreads: capacity}
	built := make([]*gonative.Mutex, batch)
	least := math.Inf(1)
	for b := 0; b < 9; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range built {
			built[i] = gonative.WrapWithPool(spec, env, pool)
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/batch)
	}
	runtime.KeepAlive(built)
	return least
}

// TestShardLocksAreCompact pins the paper's compactness on the serving
// path: queue nodes belong to the pool's threads, so an MCS, MCSCR, CNA,
// HMCS or C-BO-MCS shard lock costs its lock struct (with HMCS's
// per-socket root nodes) and adapter alone, the same at pool capacity 4
// as at 256, and a CNA one stays within 512 bytes. Not parallel: the
// allocation counters are process-wide.
func TestShardLocksAreCompact(t *testing.T) {
	for _, name := range []string{"CNA", "CNA-opt", "CNA-fissile", "MCS", "MCSCR",
		"HMCS", "C-BO-MCS", "HMCS-fissile", "C-BO-MCS-fissile", "HMCS-cr", "C-BO-MCS-cr"} {
		spec := lockreg.MustSpec(name)
		small, large := shardLockBytes(spec, 4), shardLockBytes(spec, 256)
		if small != large {
			t.Errorf("%s: %.0f B per shard lock over a pool of 4, %.0f B over 256: the lock grows with the pool", name, small, large)
		}
		if name == "CNA" && small > 512 {
			t.Errorf("CNA: %.0f B per shard lock, want at most 512", small)
		}
	}
}
