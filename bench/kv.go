package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gonative"
	"repro/internal/kvserver"
	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/prng"
	"repro/internal/stats"
)

// poolCapacity is the shard-lock slot pool kvserver is built with: one
// slot per client plus slack, so slot waits never stand in for lock
// waits.
const poolCapacity = workers + 2

// kvConfig is one kvserver workload: the shape of the server and of the
// traffic the closed-loop clients send it.
type kvConfig struct {
	shards   int
	keys     uint64
	theta    float64 // zipf skew; 0 is uniform
	readFrac float64 // Get share; the rest are Updates
	lock     string  // registry name of every shard lock
}

// kvWorkloads are the real-lock workloads. kv-spread and kv-hot are
// mirror images: on kv-spread 16 mostly free shard locks sit in front
// of 64 Ki keys (8 MB of skiplist, four times L2), so request cost is
// routing, the fissile one-CAS fast path and walks that miss L2; on
// kv-hot every request contends for one lock over an L1-resident
// 256-key store, so slot claim, CNA handover and waiting dominate.
// kv-readmostly reaches a single lock through its read side, over 4 Ki
// keys (fits L2).
//
// The key counts keep run-to-run drift down on a host shared with other
// tenants. A 1 Mi-key kv-spread (128 MB) lives in a last-level cache the
// neighbours share, and its throughput drifted by 15% between runs,
// against 3% at 64 Ki keys. On kv-hot a shorter critical section lets
// more waiters see the handover while still spinning; its run-to-run
// range roughly halved going from 4 Ki keys to 256.
var kvWorkloads = map[string]kvConfig{
	"kv-spread":     {shards: 16, keys: 1 << 16, theta: 0.99, readFrac: 0.90, lock: "CNA-fissile"},
	"kv-hot":        {shards: 1, keys: 1 << 8, theta: 0, readFrac: 0.50, lock: "CNA"},
	"kv-readmostly": {shards: 1, keys: 4 << 10, theta: 0, readFrac: 0.99, lock: "CNA-rw"},
}

// shrunk caps the key space for test-sized runs.
func (c kvConfig) shrunk() kvConfig {
	c.keys = min(c.keys, 1<<12)
	return c
}

// prefill is the value every key holds before traffic starts; Updates
// add one, so the sum gate can count them back.
func prefill(k uint64) uint64 { return k*3 + 1 }

func increment(old uint64, _ bool) uint64 { return old + 1 }

const (
	classRead = iota
	classWrite
)

func classOf(read bool) int {
	if read {
		return classRead
	}
	return classWrite
}

// worker is one closed-loop client: its key and mix streams, and
// everything it counts. Only its own goroutine touches it while a trial
// runs; the coordinator reads it after the trial's WaitGroup.
type worker struct {
	keys *prng.Zipf
	coin *prng.Xoroshiro
	// th is the worker's identity on the raw rung, where locks take an
	// explicit *locks.Thread.
	th *locks.Thread

	lat      [2]hist // request latency by class, measured phase only
	ops      uint64  // requests completed in the measured phase
	requests uint64  // requests issued in the trial, warmup included
	updates  uint64  // Updates issued since the last reset (the sum gate counts them all)
	misses   uint64  // Gets that did not find their prefilled key

	tr *tracer // nil unless the run is traced
}

func newWorkers(seed uint64, c kvConfig) []*worker {
	place := numa.NewPlacement(numa.TwoSocketXeonE5(), workers, numa.Spread)
	ws := make([]*worker, workers)
	for i := range ws {
		s := prng.NewSplitMix64(seed*0x9e3779b97f4a7c15 + uint64(i))
		ws[i] = &worker{
			keys: prng.NewZipf(s.Next(), c.theta, c.keys),
			coin: prng.New(s.Next()),
			th:   locks.NewThread(i, place.SocketOf(i)),
		}
	}
	return ws
}

// request serves one request for w. measured reports whether the trial
// is in its measured phase, where latencies and spans are recorded.
type request func(w *worker, key uint64, read, measured bool)

const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// trial runs one closed-loop trial: each worker issues its next request
// only when the previous one returns. It warms up for warm, measures for
// dur, and returns the measured requests per second. Worker counters
// other than updates and misses restart with each trial.
func trial(ws []*worker, readFrac float64, warm, dur time.Duration, req request) float64 {
	var phase atomic.Int32
	var wg sync.WaitGroup
	for _, w := range ws {
		w.lat = [2]hist{}
		w.ops, w.requests = 0, 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := phase.Load()
				if p == phaseStop {
					return
				}
				key := w.keys.ScrambledNext()
				read := w.coin.Float64() < readFrac
				if !read {
					w.updates++
				}
				req(w, key, read, p == phaseMeasure)
				w.requests++
				if p == phaseMeasure {
					w.ops++
				}
			}
		}()
	}
	time.Sleep(warm)
	phase.Store(phaseMeasure)
	start := time.Now()
	time.Sleep(dur)
	phase.Store(phaseStop)
	elapsed := time.Since(start)
	wg.Wait()
	var ops uint64
	for _, w := range ws {
		ops += w.ops
	}
	return float64(ops) / elapsed.Seconds()
}

// kvRequest serves requests through kvserver's public API.
func kvRequest(srv *kvserver.Server) request {
	return func(w *worker, key uint64, read, measured bool) {
		t0 := time.Now()
		if read {
			if _, ok := srv.Get(key); !ok {
				w.misses++
			}
		} else {
			srv.Update(key, increment)
		}
		if measured {
			t1 := time.Now()
			w.lat[classOf(read)].record(int64(t1.Sub(t0)))
			if w.tr != nil {
				w.tr.begin()
				w.tr.span(spKVRequest, t0, t1)
			}
		}
	}
}

func buildKV(c kvConfig) *kvserver.Server {
	srv := kvserver.New(kvserver.Config{
		Shards:       c.shards,
		Locks:        []lockreg.Spec{lockreg.MustSpec(c.lock)},
		PoolCapacity: poolCapacity,
	})
	for k := uint64(0); k < c.keys; k++ {
		srv.Put(k, prefill(k))
	}
	return srv
}

// setupKV builds and prefills the server from the same heap state at
// least three times and until budget has passed, and returns the last
// server with the median build time.
func setupKV(c kvConfig, budget time.Duration) (*kvserver.Server, float64, int) {
	var srv *kvserver.Server
	var times []float64
	for start := time.Now(); len(times) < 3 || time.Since(start) < budget; {
		srv = nil
		runtime.GC()
		t := time.Now()
		srv = buildKV(c)
		times = append(times, time.Since(t).Seconds())
	}
	_, med, _ := quartiles(times)
	return srv, med, len(times)
}

// nativeLock is one shard lock in goroutine-native form, built exactly
// as kvserver builds it: the RW adapter for specs with a read side, the
// spec's own native build for stdlib baselines, else the slot-pool
// adapter. rw is nil when the lock has no read side.
type nativeLock struct {
	m  locks.NativeMutex
	rw locks.NativeRWMutex
}

func buildNative(spec lockreg.Spec, env lockreg.Env, pool *gonative.Pool) nativeLock {
	if spec.RW {
		if rw, err := gonative.WrapRWWithPool(spec, env, pool); err == nil {
			return nativeLock{m: rw, rw: rw}
		}
	}
	if spec.Native != nil {
		return nativeLock{m: spec.Native(env)}
	}
	return nativeLock{m: gonative.WrapWithPool(spec, env, pool)}
}

// nativeEnv is the construction environment kvserver hands its shard
// locks: the default (2-socket) topology and one thread ID per slot.
func nativeEnv() lockreg.Env { return lockreg.Env{MaxThreads: poolCapacity} }

// lockBytes is the heap allocated per shard lock built the way kvserver
// builds them (the shared pool excluded): the mean over a batch of 1024,
// least of nine batches, so that the odd allocation the runtime makes on
// its own during a batch is not charged to the lock.
func lockBytes(spec lockreg.Spec) float64 {
	pool := gonative.NewPool(poolCapacity, numa.Topology{})
	built := make([]nativeLock, lockBatch)
	bytes := leastBatchBytes(func(i int) { built[i] = buildNative(spec, nativeEnv(), pool) })
	runtime.KeepAlive(built)
	return bytes
}

const lockBatch = 1024

// leastBatchBytes calls build(i) for every i below lockBatch, nine
// times over, and returns the least mean heap allocated per call.
func leastBatchBytes(build func(i int)) float64 {
	least := math.Inf(1)
	for b := 0; b < 9; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < lockBatch; i++ {
			build(i)
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/lockBatch)
	}
	return least
}

// kvTrials is the number of trials a run splits its measured time into;
// each metric is the median over them, so a burst of host noise or a
// collection that lands in one trial does not move the result.
const kvTrials = 20

// warmups returns how long the first trial of a run warms up (caches,
// branch predictors, the pool's slot placement) and how long every later
// trial does (its clients are fresh goroutines).
func warmups(o options) (first, each time.Duration) {
	if o.short {
		return 10 * time.Millisecond, 2 * time.Millisecond
	}
	return 500 * time.Millisecond, 50 * time.Millisecond
}

// runKV measures a kv workload end to end with tracing off.
func runKV(o options, c kvConfig) *report {
	r := newReport(o.workload)
	r.set("lock_bytes", lockBytes(lockreg.MustSpec(c.lock)), "B", lockBatch)
	budget := 500 * time.Millisecond
	if o.short {
		budget = 20 * time.Millisecond
	}
	srv, setup, reps := setupKV(c, budget)
	r.set("setup_s", setup, "s", uint64(reps))

	ws := newWorkers(o.seed, c)
	// Collect set-up garbage now rather than in the first trial.
	runtime.GC()
	warm, each := warmups(o)
	per := time.Duration(o.seconds / kvTrials * float64(time.Second))
	var ops [kvTrials]float64
	var pct [4][kvTrials]float64
	var counts [2]uint64
	perWorker := make([]uint64, len(ws))
	for i := 0; i < kvTrials; i++ {
		ops[i] = trial(ws, c.readFrac, warm, per, kvRequest(srv))
		warm = each
		var lat [2]hist
		for j, w := range ws {
			lat[classRead].merge(&w.lat[classRead])
			lat[classWrite].merge(&w.lat[classWrite])
			perWorker[j] += w.ops
			r.Attempted += w.requests
		}
		for cls := range lat {
			pct[2*cls][i] = lat[cls].quantile(0.50)
			pct[2*cls+1][i] = lat[cls].quantile(0.99)
			counts[cls] += lat[cls].n
		}
	}
	r.setTrials("ops_per_s", ops[:], "1/s", counts[classRead]+counts[classWrite])
	r.setTrials("read_p50_ns", pct[0][:], "ns", counts[classRead])
	r.setTrials("read_p99_ns", pct[1][:], "ns", counts[classRead])
	r.setTrials("write_p50_ns", pct[2][:], "ns", counts[classWrite])
	r.setTrials("write_p99_ns", pct[3][:], "ns", counts[classWrite])
	r.set("fairness", stats.FairnessFactor(perWorker), "ratio", counts[classRead]+counts[classWrite])

	r.Failed = missesOf(ws)
	checkKV(r, srv, c.keys, updatesOf(ws))
	return r
}

func missesOf(ws []*worker) uint64 {
	var n uint64
	for _, w := range ws {
		n += w.misses
	}
	return n
}

func updatesOf(ws []*worker) uint64 {
	var n uint64
	for _, w := range ws {
		n += w.updates
	}
	return n
}

// checkKV runs the serving gates after quiescence: no Update was lost
// or doubled, and no slot leaked.
func checkKV(r *report, srv *kvserver.Server, keys, updates uint64) {
	checkSum(r, "kvserver", keys, updates, srv.Get)
	if free, capacity := srv.PoolStats(); free != capacity {
		r.gate("kvserver: %d of %d pool slots free after quiescence", free, capacity)
	}
}

// checkSum is the lost-update gate: with every key prefilled and each
// Update adding one, the values must exceed their prefill by exactly the
// number of Updates issued. A broken mutual exclusion loses some.
func checkSum(r *report, layer string, keys, updates uint64, get func(uint64) (uint64, bool)) {
	var sum uint64
	for k := uint64(0); k < keys; k++ {
		v, ok := get(k)
		if !ok {
			r.gate("%s: key %d missing after the run", layer, k)
			return
		}
		sum += v - prefill(k)
	}
	if sum != updates {
		r.gate("%s: values grew by %d but %d Updates were issued", layer, sum, updates)
	}
}
