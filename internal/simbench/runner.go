// Package simbench regenerates the paper's evaluation (Figures 6-15 and
// Table 1's behaviour) on the memsim simulated machine. Each figure is a
// thread-count sweep of a workload model whose contention structure
// mirrors the benchmark the paper ran; the workload models are documented
// field by field in workloads.go and kernel.go.
//
// Runs are time-based like the paper's ("threads start running at the
// same time ... at the end of the measured time period the total number
// of operations is calculated"): every simulated thread executes
// operations until the virtual-time horizon, and throughput is total
// operations over the virtual makespan. Everything is deterministic, so
// "error bars" would be zero; where the paper averages five runs, one
// simulated run suffices.
package simbench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/stats"
)

// OpFunc performs one benchmark operation on behalf of a simulated
// thread; op is the per-thread operation counter (usable for periodic
// behaviour).
type OpFunc func(th *memsim.T, op int)

// Builder wires a workload into a fresh simulator: it allocates locks
// and shared data, then returns the per-thread operation closure. A
// Builder keeps no state shared between calls: Sweep and the ablations
// run several simulations at once.
type Builder func(s *memsim.Sim, threads int) OpFunc

// Result summarises one (workload, lock, threads) simulation.
type Result struct {
	Threads int
	// Ops is the total number of completed operations.
	Ops uint64
	// OpsPerThread supports the fairness factor.
	OpsPerThread []uint64
	// VirtualNs is the simulation makespan.
	VirtualNs uint64
	// Throughput is in operations per virtual microsecond, the paper's
	// y-axis unit.
	Throughput float64
	// LLCMissesPerOp is the simulated LLC load-miss rate normalised per
	// operation (Figure 7's metric up to a constant).
	LLCMissesPerOp float64
	// Fairness is the paper's fairness factor over OpsPerThread.
	Fairness float64
}

// Config describes one simulation run.
type Config struct {
	Topo    numa.Topology
	Costs   memsim.Costs
	Threads int
	// HorizonNs is the virtual measurement interval.
	HorizonNs uint64
	Build     Builder
	// Placement lays workers out on CPUs. The default (Spread)
	// interleaves sockets like unpinned threads on an idle machine;
	// Compact pins all workers to one socket first — the ablation where
	// NUMA-awareness must not matter.
	Placement numa.Policy
}

// Run executes one simulation and returns its Result.
func Run(cfg Config) Result {
	// The placement layer wraps workers beyond the CPU count (the real-
	// concurrency harness's oversubscription axis), but the simulator
	// runs every thread as an independent virtual-time timeline: two
	// workers sharing one virtual CPU would execute fully in parallel, a
	// physically impossible schedule. Reject it loudly here.
	if cfg.Threads > cfg.Topo.NumCPUs() {
		panic(fmt.Sprintf("simbench: %d threads exceed the %d-CPU topology (virtual time cannot model oversubscription)",
			cfg.Threads, cfg.Topo.NumCPUs()))
	}
	s := memsim.New(cfg.Topo, cfg.Costs)
	place := numa.NewPlacement(cfg.Topo, cfg.Threads, cfg.Placement)
	op := cfg.Build(s, cfg.Threads)
	opsPerThread := make([]uint64, cfg.Threads)
	for w := 0; w < cfg.Threads; w++ {
		s.Spawn(place.CPUOf(w), func(th *memsim.T) {
			n := 0
			for th.Now() < cfg.HorizonNs {
				op(th, n)
				n++
			}
			opsPerThread[th.ID()] = uint64(n)
		})
	}
	s.Run()

	var total uint64
	for _, o := range opsPerThread {
		total += o
	}
	res := Result{
		Threads:      cfg.Threads,
		Ops:          total,
		OpsPerThread: opsPerThread,
		VirtualNs:    s.Clock(),
		Fairness:     stats.FairnessFactor(opsPerThread),
	}
	if res.VirtualNs > 0 {
		res.Throughput = float64(total) / (float64(res.VirtualNs) / 1000)
	}
	if total > 0 {
		res.LLCMissesPerOp = float64(s.LLC().TotalMisses()) / float64(total)
	}
	return res
}

// Sweep runs build across the given thread counts and returns one
// Result per count, in the order of threadCounts. The runs are
// independent and execute in parallel on up to GOMAXPROCS goroutines, so
// build must keep no state shared between calls (see Builder); a panic
// in any run re-panics in the caller's goroutine.
func Sweep(topo numa.Topology, costs memsim.Costs, horizon uint64, threadCounts []int, build Builder) []Result {
	cfgs := make([]Config, len(threadCounts))
	for i, n := range threadCounts {
		cfgs[i] = Config{Topo: topo, Costs: costs, Threads: n, HorizonNs: horizon, Build: build}
	}
	return runAll(cfgs)
}

// runAll runs independent simulations on up to GOMAXPROCS goroutines and
// returns their Results in the order of cfgs; at GOMAXPROCS=1 they run
// one after another. Each simulation is deterministic, so the Results do
// not depend on how the runs spread over processors. If runs panic,
// runAll waits for the others and re-panics in the caller's goroutine
// with the value of the first in cfgs' order.
func runAll(cfgs []Config) []Result {
	out := make([]Result, len(cfgs))
	panics := make([]any, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(cfgs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				func() {
					defer func() { panics[i] = recover() }()
					out[i] = Run(cfgs[i])
				}()
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}

// Series converts sweep results to a named stats series using the given
// metric extractor.
func Series(name string, results []Result, metric func(Result) float64) *stats.Series {
	s := &stats.Series{Name: name}
	for _, r := range results {
		s.Add(r.Threads, metric(r))
	}
	return s
}

// Throughput extracts ops/us.
func Throughput(r Result) float64 { return r.Throughput }

// MissesPerOp extracts LLC misses per operation.
func MissesPerOp(r Result) float64 { return r.LLCMissesPerOp }

// Fairness extracts the fairness factor.
func Fairness(r Result) float64 { return r.Fairness }

// ThreadCounts2S is the paper's 2-socket sweep (1..70 of 72 CPUs,
// "leaving a few spare logical CPUs for any occasional kernel activity").
func ThreadCounts2S() []int { return []int{1, 2, 4, 8, 16, 24, 36, 48, 60, 70} }

// ThreadCounts4S is the 4-socket sweep (1..142 of 144 CPUs).
func ThreadCounts4S() []int { return []int{1, 2, 4, 8, 16, 32, 48, 72, 96, 120, 142} }

// ShortCounts is a scaled-down sweep for unit tests and testing.B.
func ShortCounts() []int { return []int{1, 2, 8, 24} }
