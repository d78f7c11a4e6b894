package main

import (
	"reflect"
	"runtime"
	"time"

	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/prng"
	"repro/internal/simbench"
	"repro/internal/simlocks"
	"repro/internal/stats"
)

const simWorkload = "sim-kvmap"

// The paper's Figure 6 point on the simulated 2-socket machine: 36
// threads on the KV-map under CNA, at cmd/reproduce's full-scale
// horizon.
const (
	simThreads = 36
	simHorizon = 12_000_000 // virtual ns
)

func simConfig(build simbench.Builder, horizon uint64) simbench.Config {
	return simbench.Config{
		Topo:      numa.TwoSocketXeonE5(),
		Costs:     memsim.DefaultCosts2S(),
		Threads:   simThreads,
		HorizonNs: horizon,
		Build:     build,
	}
}

// twinCNAOptions is the CNA configuration simbench runs its KV-map with:
// the paper's options with the keep-local threshold scaled to
// millisecond horizons.
func twinCNAOptions() simlocks.CNAOptions {
	o := simlocks.DefaultCNAOptions()
	o.KeepLocalMask = 0x3ff
	return o
}

// simRecorder observes the twin from outside the lock: virtual times
// around Lock and Unlock, and the socket of each acquirer. memsim runs
// one simulated thread at a time and hands control over channels, so the
// recorder needs no locking and sees acquisitions in ownership order.
type simRecorder struct {
	lat         [2]hist // operation latency by class, virtual ns
	acquire, cs hist
	last        int // socket of the previous holder, -1 before the first
	local, hand uint64
	spans       []span
}

func newSimRecorder(keepOps int) *simRecorder {
	return &simRecorder{last: -1, spans: make([]span, 0, keepOps*spansPerRequest)}
}

// Names of the sim spans in the span file, after the kv span names.
var simSpanNames = [...]string{"sim.op", "sim.acquire", "sim.cs", "sim.release"}

func (r *simRecorder) record(th *memsim.T, op int, start, acquired, releasing, end uint64, write bool) {
	r.lat[classOf(!write)].record(int64(end - start))
	r.acquire.record(int64(acquired - start))
	r.cs.record(int64(releasing - acquired))
	if r.last >= 0 {
		r.hand++
		if th.Socket() == r.last {
			r.local++
		}
	}
	r.last = th.Socket()
	if cap(r.spans)-len(r.spans) >= spansPerRequest {
		req := uint32(th.ID())<<24 | uint32(op)&0xffffff
		bounds := [...]uint64{start, acquired, releasing, end}
		r.spans = append(r.spans, span{req: req, name: 0, parent: -1, start: int64(start), end: int64(end)})
		for i := 0; i < 3; i++ {
			r.spans = append(r.spans, span{req: req, name: uint8(i + 1), parent: 0, start: int64(bounds[i]), end: int64(bounds[i+1])})
		}
	}
}

// twin rebuilds simbench.KVMap(DefaultKVMap(), LockCNA) from memsim and
// simlocks, operation for operation, with rec watching every lock
// acquisition. With reseed, each simulated thread's PRNG is reseeded
// from seed at its first operation, which varies the key, mix and
// keep-local draws; without it the twin must match simbench exactly.
func twin(rec *simRecorder, reseed bool, seed uint64) simbench.Builder {
	cfg := simbench.DefaultKVMap()
	return func(s *memsim.Sim, threads int) simbench.OpFunc {
		l := simlocks.NewCNA(s, threads, twinCNAOptions())
		pool := make([]*memsim.Word, cfg.HotLines)
		for i := range pool {
			pool[i] = s.NewWord(0)
		}
		return func(th *memsim.T, op int) {
			if op == 0 && reseed {
				th.RNG().Seed(seed ^ uint64(th.ID())*0x9e3779b97f4a7c15)
			}
			start := th.Now()
			l.Lock(th)
			acquired := th.Now()
			for i := 0; i < cfg.ReadLines; i++ {
				th.Load(pool[th.RNG().Intn(len(pool))])
			}
			write := th.RNG().Intn(1000) < cfg.UpdatePermille
			if write {
				for i := 0; i < cfg.WriteLines; i++ {
					w := pool[th.RNG().Intn(len(pool))]
					th.Store(w, th.Now())
				}
			}
			if cfg.CSComputeNs > 0 {
				th.Work(cfg.CSComputeNs)
			}
			releasing := th.Now()
			l.Unlock(th)
			end := th.Now()
			if cfg.ExternalWorkNs > 0 {
				th.Work(cfg.ExternalWorkNs/2 + th.RNG().Next()%cfg.ExternalWorkNs)
			}
			rec.record(th, op, start, acquired, releasing, end, write)
		}
	}
}

// simLockBytes is the heap allocated per simulated CNA lock built for
// the workload's thread count (see leastBatchBytes).
func simLockBytes() float64 {
	s := memsim.New(numa.TwoSocketXeonE5(), memsim.DefaultCosts2S())
	built := make([]*simlocks.CNA, lockBatch)
	bytes := leastBatchBytes(func(i int) { built[i] = simlocks.NewCNA(s, simThreads, twinCNAOptions()) })
	runtime.KeepAlive(built)
	return bytes
}

// runSim measures the simulated KV-map. Set-up runs simbench's own
// Figure 6 builder three times (timed, and checked identical), then
// checks that the unseeded twin reproduces it exactly. The measured
// reps run the twin reseeded from --seed, two per measured second (a
// 12 ms horizon takes about 0.45 s of wall time): p99 and fairness hang
// on rare secondary-queue flushes and need many reps to settle.
func runSim(o options) *report {
	r := newReport(o.workload)
	horizon, keepOps := uint64(simHorizon), 4096
	if o.short {
		horizon, keepOps = 300_000, 64
	}
	ref := simConfig(simbench.KVMap(simbench.DefaultKVMap(), simbench.LockCNA), horizon)
	var setups []float64
	var first simbench.Result
	for i := 0; i < 3; i++ {
		t := time.Now()
		res := simbench.Run(ref)
		setups = append(setups, time.Since(t).Seconds())
		if i == 0 {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			r.gate("sim: simbench run %d differs from run 0 (%d vs %d ops)", i, res.Ops, first.Ops)
		}
	}
	_, setup, _ := quartiles(setups)
	r.set("setup_s", setup, "s", uint64(len(setups)))
	r.set("lock_bytes", simLockBytes(), "B", lockBatch)

	if res := simbench.Run(simConfig(twin(newSimRecorder(0), false, 0), horizon)); !reflect.DeepEqual(res, first) {
		r.gate("sim: twin ran %d ops in %d vns, simbench %d ops in %d vns", res.Ops, res.VirtualNs, first.Ops, first.VirtualNs)
	}

	reps := max(1, int(2*o.seconds+0.5))
	seeds := prng.NewSplitMix64(o.seed)
	perThread := make([]uint64, simThreads)
	var ops, vns, misses float64
	var all simRecorder
	for i := 0; i < reps; i++ {
		keep := 0
		if i == 0 && o.trace {
			keep = keepOps
		}
		rec := newSimRecorder(keep)
		res := simbench.Run(simConfig(twin(rec, true, seeds.Next()), horizon))
		for t, n := range res.OpsPerThread {
			perThread[t] += n
		}
		ops += float64(res.Ops)
		vns += float64(res.VirtualNs)
		misses += res.LLCMissesPerOp * float64(res.Ops)
		r.Attempted += res.Ops
		for c := range all.lat {
			all.lat[c].merge(&rec.lat[c])
		}
		all.acquire.merge(&rec.acquire)
		all.cs.merge(&rec.cs)
		all.local += rec.local
		all.hand += rec.hand
		if i == 0 && o.trace {
			if err := writeSpans(o.spans, []spanSet{{rung: "sim", spans: rec.spans}}, simSpanNames[:]); err != nil {
				r.gate("%v", err)
			}
		}
	}

	rd, wr := &all.lat[classRead], &all.lat[classWrite]
	r.set("fairness", stats.FairnessFactor(perThread), "ratio", uint64(ops))
	r.set("ops_per_s", ops/vns*1e9, "1/s", uint64(ops))
	r.set("read_p50_ns", rd.quantile(0.50), "ns", rd.n)
	r.set("read_p99_ns", rd.quantile(0.99), "ns", rd.n)
	r.set("write_p50_ns", wr.quantile(0.50), "ns", wr.n)
	r.set("write_p99_ns", wr.quantile(0.99), "ns", wr.n)
	r.set("memsim.llc_misses_per_op", misses/ops, "1/op", uint64(ops))
	r.set("simlocks.local_handover_frac", ratio(all.local, all.hand), "frac", all.hand)
	r.set("simlocks.acquire_vns", all.acquire.mean(), "vns", all.acquire.n)
	r.set("simlocks.cs_vns", all.cs.mean(), "vns", all.cs.n)
	return r
}
