package simbench

import (
	"fmt"
	"strings"

	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/simlocks"
)

// Ablations for the design choices DESIGN.md calls out: the fairness
// threshold knob (Section 7.1.1: "the CNA lock provides a knob to tune
// the fairness-vs-throughput tradeoff") and thread placement (NUMA-
// awareness must be a no-op when all threads share a socket).

// FairnessSweep runs the Figure 6 workload at one thread count across
// keep_lock_local masks, reporting throughput and the fairness factor
// per mask. Mask 0 is exact MCS FIFO order; larger masks trade fairness
// for locality.
func FairnessSweep(sc Scale, threads int) string {
	topo := numa.TwoSocketXeonE5()
	costs := memsim.DefaultCosts2S()
	cfg := DefaultKVMap()
	masks := []uint64{0x0, 0xf, 0xff, 0x3ff, 0xfff, 0xffff}

	cfgs := make([]Config, len(masks))
	for i, mask := range masks {
		build := func(s *memsim.Sim, n int) OpFunc {
			opts := simlocks.DefaultCNAOptions()
			opts.KeepLocalMask = mask
			l := simlocks.NewCNA(s, n, opts)
			pool := newSharedPool(s, cfg.HotLines)
			return func(th *memsim.T, op int) {
				l.Lock(th)
				pool.readSome(th, cfg.ReadLines)
				if th.RNG().Intn(1000) < cfg.UpdatePermille {
					pool.writeSome(th, cfg.WriteLines)
				}
				th.Work(cfg.CSComputeNs)
				l.Unlock(th)
			}
		}
		cfgs[i] = Config{Topo: topo, Costs: costs, Threads: threads, HorizonNs: sc.HorizonNs, Build: build}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# ablation — CNA fairness threshold (KV-map, %d threads)\n", threads)
	fmt.Fprintf(&b, "%-10s %14s %10s\n", "mask", "ops/us", "fairness")
	for i, res := range runAll(cfgs) {
		fmt.Fprintf(&b, "%#-10x %14.3f %10.3f\n", masks[i], res.Throughput, res.Fairness)
	}
	return b.String()
}

// PlacementAblation compares Spread and Compact placements for MCS and
// CNA: with every worker on one socket there are no remote handovers to
// avoid, so CNA must neither help nor hurt (beyond its bounded
// successor-scan overhead).
func PlacementAblation(sc Scale, threads int) string {
	topo := numa.TwoSocketXeonE5()
	costs := memsim.DefaultCosts2S()
	if threads > topo.NumCPUs()/topo.Sockets {
		threads = topo.NumCPUs() / topo.Sockets // must fit on one socket
	}
	cfg := DefaultKVMap()

	locks := []LockChoice{LockMCS, LockCNA}
	placements := []struct {
		name   string
		policy numa.Policy
	}{{"spread", numa.Spread}, {"compact", numa.Compact}}
	var cfgs []Config
	for _, lock := range locks {
		for _, pl := range placements {
			cfgs = append(cfgs, Config{
				Topo: topo, Costs: costs, Threads: threads,
				HorizonNs: sc.HorizonNs, Build: KVMap(cfg, lock), Placement: pl.policy,
			})
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# ablation — thread placement (KV-map, %d threads)\n", threads)
	fmt.Fprintf(&b, "%-10s %-10s %14s\n", "lock", "placement", "ops/us")
	for i, res := range runAll(cfgs) {
		lock, pl := locks[i/len(placements)], placements[i%len(placements)]
		fmt.Fprintf(&b, "%-10s %-10s %14.3f\n", lock, pl.name, res.Throughput)
	}
	return b.String()
}
