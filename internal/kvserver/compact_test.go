package kvserver

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/gonative"
	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/numa"
)

// shardLockBytes is the heap allocated per shard lock built the way
// Server.buildLock builds them — RW specs through
// gonative.WrapRWWithPool, the stdlib baselines natively, every other
// spec through gonative.WrapWithPool — over one shared pool of the given
// capacity, which is excluded, as the mean over a batch of 1024 builds,
// least of nine batches so that the odd allocation the runtime makes on
// its own is not charged to the lock.
func shardLockBytes(spec lockreg.Spec, capacity int) float64 {
	const batch = 1024
	pool := gonative.NewPool(capacity, numa.Topology{})
	env := lockreg.Env{MaxThreads: capacity}
	build := func() locks.NativeMutex {
		if spec.RW {
			if m, err := gonative.WrapRWWithPool(spec, env, pool); err == nil {
				return m
			}
		}
		if spec.Native != nil {
			return spec.Native(env)
		}
		return gonative.WrapWithPool(spec, env, pool)
	}
	built := make([]locks.NativeMutex, batch)
	least := math.Inf(1)
	for b := 0; b < 9; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range built {
			built[i] = build()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/batch)
	}
	runtime.KeepAlive(built)
	return least
}

// TestShardLocksAreCompact pins the paper's compactness on the serving
// path: queue nodes belong to the pool's threads, and a waiting RW
// reader queues its thread's node too, so every registered shard lock
// outside the CLH family costs the same at pool capacity 4 as at 256. A
// CNA shard lock stays within 512 bytes and a CNA-rw one within 600.
// CLH keeps per-lock nodes by design (its nodes move between threads).
// Not parallel: the allocation counters are process-wide.
func TestShardLocksAreCompact(t *testing.T) {
	clh := map[string]bool{"CLH": true, "CLH-park": true, "CLH-fissile": true, "CLH-rw": true}
	limit := map[string]float64{"CNA": 512, "CNA-rw": 600}
	for _, spec := range lockreg.All() {
		if clh[spec.Name] {
			continue
		}
		small, large := shardLockBytes(spec, 4), shardLockBytes(spec, 256)
		t.Logf("%s: %.0f B over a pool of 4, %.0f B over 256", spec.Name, small, large)
		if small != large {
			t.Errorf("%s: %.0f B per shard lock over a pool of 4, %.0f B over 256: the lock grows with the pool", spec.Name, small, large)
		}
		if max, ok := limit[spec.Name]; ok && small > max {
			t.Errorf("%s: %.0f B per shard lock, want at most %.0f", spec.Name, small, max)
		}
	}
	for name := range limit {
		if _, ok := lockreg.Lookup(name); !ok {
			t.Errorf("%s is not registered", name)
		}
	}
}
