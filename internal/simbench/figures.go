package simbench

import (
	"fmt"
	"strings"

	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/stats"
)

// Scale controls how much simulated time and how many sweep points each
// figure uses. FullScale regenerates publication-style curves;
// QuickScale keeps unit tests and testing.B benchmarks fast.
type Scale struct {
	HorizonNs uint64
	Counts2S  []int
	Counts4S  []int
}

// FullScale is used by cmd/reproduce.
func FullScale() Scale {
	return Scale{HorizonNs: 12_000_000, Counts2S: ThreadCounts2S(), Counts4S: ThreadCounts4S()}
}

// QuickScale is used by tests and testing.B wrappers.
func QuickScale() Scale {
	return Scale{HorizonNs: 1_200_000, Counts2S: ShortCounts(), Counts4S: ShortCounts()}
}

// Figure is one reproduced figure panel: named series over thread counts.
type Figure struct {
	ID     string // e.g. "fig06"
	Title  string
	Unit   string
	Prec   int
	Series []*stats.Series
}

// Table renders the figure as an aligned text table.
func (f *Figure) Table() string {
	return stats.Table(fmt.Sprintf("%s — %s", f.ID, f.Title), f.Unit, f.Prec, f.Series)
}

// CSV renders the figure as CSV.
func (f *Figure) CSV() string { return stats.CSV(f.Series) }

// Fig060708 regenerates Figures 6, 7 and 8 from one set of runs: the
// key-value map microbenchmark with no external work on the 2-socket
// machine, reporting throughput, LLC misses per operation, and the
// long-term fairness factor.
func Fig060708(sc Scale) (fig6, fig7, fig8 Figure) {
	topo := numa.TwoSocketXeonE5()
	costs := memsim.DefaultCosts2S()
	cfg := DefaultKVMap()
	fig6 = Figure{ID: "fig06", Title: "KV-map throughput, 2-socket, no external work", Unit: "ops/us", Prec: 3}
	fig7 = Figure{ID: "fig07", Title: "KV-map LLC load misses, 2-socket", Unit: "misses/op", Prec: 3}
	fig8 = Figure{ID: "fig08", Title: "KV-map long-term fairness factor, 2-socket", Unit: "fairness factor", Prec: 3}
	for _, lock := range UserLocks() {
		res := Sweep(topo, costs, sc.HorizonNs, sc.Counts2S, KVMap(cfg, lock))
		fig6.Series = append(fig6.Series, Series(lock.String(), res, Throughput))
		fig7.Series = append(fig7.Series, Series(lock.String(), res, MissesPerOp))
		fig8.Series = append(fig8.Series, Series(lock.String(), res, Fairness))
	}
	return fig6, fig7, fig8
}

// Fig09 regenerates Figure 9: the key-value map with non-critical
// external work, including the shuffle-reduction variant CNA (opt).
func Fig09(sc Scale) Figure {
	topo := numa.TwoSocketXeonE5()
	costs := memsim.DefaultCosts2S()
	cfg := KVMapWithExternalWork()
	fig := Figure{ID: "fig09", Title: "KV-map throughput with non-critical work, 2-socket", Unit: "ops/us", Prec: 3}
	locks := []LockChoice{LockMCS, LockCNA, LockCNAOpt, LockCBOMCS, LockHMCS}
	for _, lock := range locks {
		res := Sweep(topo, costs, sc.HorizonNs, sc.Counts2S, KVMap(cfg, lock))
		fig.Series = append(fig.Series, Series(lock.String(), res, Throughput))
	}
	return fig
}

// Fig10 regenerates Figure 10: the Figure 6 workload on the 4-socket
// machine, where remote misses cost more and the CNA/MCS gap widens.
func Fig10(sc Scale) Figure {
	topo := numa.FourSocketXeonE7()
	costs := memsim.DefaultCosts4S()
	cfg := DefaultKVMap()
	fig := Figure{ID: "fig10", Title: "KV-map throughput, 4-socket, no external work", Unit: "ops/us", Prec: 3}
	for _, lock := range UserLocks() {
		res := Sweep(topo, costs, sc.HorizonNs, sc.Counts4S, KVMap(cfg, lock))
		fig.Series = append(fig.Series, Series(lock.String(), res, Throughput))
	}
	return fig
}

// Fig11 regenerates Figure 11: leveldb readrandom on (a) a pre-filled
// 1M-key database and (b) an empty database.
func Fig11(sc Scale) (a, b Figure) {
	topo := numa.TwoSocketXeonE5()
	costs := memsim.DefaultCosts2S()
	a = Figure{ID: "fig11a", Title: "leveldb readrandom throughput, pre-filled DB", Unit: "ops/us", Prec: 3}
	b = Figure{ID: "fig11b", Title: "leveldb readrandom throughput, empty DB", Unit: "ops/us", Prec: 3}
	locks := []LockChoice{LockMCS, LockCNA, LockCNAOpt, LockCBOMCS, LockHMCS}
	for _, lock := range locks {
		resA := Sweep(topo, costs, sc.HorizonNs, sc.Counts2S, LevelDB(PreFilledLevelDB(), lock))
		a.Series = append(a.Series, Series(lock.String(), resA, Throughput))
		resB := Sweep(topo, costs, sc.HorizonNs, sc.Counts2S, LevelDB(EmptyLevelDB(), lock))
		b.Series = append(b.Series, Series(lock.String(), resB, Throughput))
	}
	return a, b
}

// Fig12 regenerates Figure 12: Kyoto Cabinet kccachetest (wicked mode,
// fixed 10M key range, fixed-duration runs).
func Fig12(sc Scale) Figure {
	topo := numa.TwoSocketXeonE5()
	costs := memsim.DefaultCosts2S()
	fig := Figure{ID: "fig12", Title: "Kyoto Cabinet kccachetest throughput", Unit: "ops/us", Prec: 3}
	for _, lock := range UserLocks() {
		res := Sweep(topo, costs, sc.HorizonNs, sc.Counts2S, Kyoto(DefaultKyoto(), lock))
		fig.Series = append(fig.Series, Series(lock.String(), res, Throughput))
	}
	return fig
}

// figLocktorture regenerates one locktorture panel.
func figLocktorture(sc Scale, topo numa.Topology, costs memsim.Costs, counts []int, lockstat bool, id, title string) Figure {
	fig := Figure{ID: id, Title: title, Unit: "ops/us", Prec: 3}
	for _, cna := range []bool{false, true} {
		name := "stock"
		if cna {
			name = "CNA"
		}
		res := Sweep(topo, costs, sc.HorizonNs, counts, Locktorture(DefaultLocktorture(lockstat), cna))
		fig.Series = append(fig.Series, Series(name, res, Throughput))
	}
	return fig
}

// Fig13 regenerates Figure 13: locktorture on the 2-socket machine,
// (a) default and (b) with lockstat enabled.
func Fig13(sc Scale) (a, b Figure) {
	topo := numa.TwoSocketXeonE5()
	costs := memsim.DefaultCosts2S()
	a = figLocktorture(sc, topo, costs, sc.Counts2S, false, "fig13a", "locktorture, 2-socket, lockstat disabled")
	b = figLocktorture(sc, topo, costs, sc.Counts2S, true, "fig13b", "locktorture, 2-socket, lockstat enabled")
	return a, b
}

// Fig14 regenerates Figure 14: locktorture on the 4-socket machine.
func Fig14(sc Scale) (a, b Figure) {
	topo := numa.FourSocketXeonE7()
	costs := memsim.DefaultCosts4S()
	a = figLocktorture(sc, topo, costs, sc.Counts4S, false, "fig14a", "locktorture, 4-socket, lockstat disabled")
	b = figLocktorture(sc, topo, costs, sc.Counts4S, true, "fig14b", "locktorture, 4-socket, lockstat enabled")
	return a, b
}

// Fig15 regenerates Figure 15: the four will-it-scale microbenchmarks.
func Fig15(sc Scale) []Figure {
	topo := numa.TwoSocketXeonE5()
	costs := memsim.DefaultCosts2S()
	var out []Figure
	for i, b := range AllWISBenches() {
		fig := Figure{
			ID:    fmt.Sprintf("fig15%c", 'a'+i),
			Title: fmt.Sprintf("will-it-scale %s", b),
			Unit:  "ops/us", Prec: 3,
		}
		for _, cna := range []bool{false, true} {
			name := "stock"
			if cna {
				name = "CNA"
			}
			res := Sweep(topo, costs, sc.HorizonNs, sc.Counts2S, WillItScale(b, cna))
			fig.Series = append(fig.Series, Series(name, res, Throughput))
		}
		out = append(out, fig)
	}
	return out
}

// TableOne regenerates Table 1 by measurement: for each will-it-scale
// benchmark it runs the stock kernel model at the given thread count and
// reports which spin locks saw queue-level contention, with their call
// sites.
func TableOne(sc Scale, threads int) string {
	topo := numa.TwoSocketXeonE5()
	costs := memsim.DefaultCosts2S()
	var b strings.Builder
	fmt.Fprintf(&b, "# Table 1 — contention in the will-it-scale benchmarks (measured at %d threads)\n", threads)
	fmt.Fprintf(&b, "%-16s %-28s %-10s %-10s %s\n", "benchmark", "contended spin locks", "acquired", "queued", "call sites")
	benches := AllWISBenches()
	reports := make([][]ContentionRow, len(benches))
	cfgs := make([]Config, len(benches))
	for i, bench := range benches {
		cfgs[i] = Config{
			Topo: topo, Costs: costs, Threads: threads, HorizonNs: sc.HorizonNs,
			Build: WillItScaleInstrumented(bench, false, &reports[i]),
		}
	}
	runAll(cfgs)
	for i, bench := range benches {
		first := true
		for j := range reports[i] {
			row := &reports[i][j]
			if !row.Contended() {
				continue
			}
			name := string(bench)
			if !first {
				name = ""
			}
			first = false
			fmt.Fprintf(&b, "%-16s %-28s %-10d %-10d %s\n",
				name, row.Lock, row.Total(), row.Slow(), strings.Join(row.CallSites, ", "))
		}
		if first {
			fmt.Fprintf(&b, "%-16s %-28s\n", bench, "(none)")
		}
	}
	return b.String()
}
