package simbench

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/memsim"
	"repro/internal/numa"
)

// midScale gives the tests enough virtual time for steady-state shapes
// without slowing the suite too much.
func midScale() Scale {
	return Scale{
		HorizonNs: 2_500_000,
		Counts2S:  []int{1, 2, 8, 36},
		Counts4S:  []int{1, 2, 8, 36},
	}
}

func at(t *testing.T, f *Figure, name string, threads int) float64 {
	t.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			if v, ok := s.At(threads); ok {
				return v
			}
			t.Fatalf("%s: series %q has no point at %d threads", f.ID, name, threads)
		}
	}
	t.Fatalf("%s: no series %q", f.ID, name)
	return 0
}

func TestRunBasics(t *testing.T) {
	res := Run(Config{
		Topo:      numa.TwoSocketXeonE5(),
		Costs:     memsim.DefaultCosts2S(),
		Threads:   4,
		HorizonNs: 500_000,
		Build:     KVMap(DefaultKVMap(), LockCNA),
	})
	if res.Ops == 0 || res.Throughput <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if len(res.OpsPerThread) != 4 {
		t.Fatalf("OpsPerThread length %d", len(res.OpsPerThread))
	}
	var sum uint64
	for _, o := range res.OpsPerThread {
		sum += o
	}
	if sum != res.Ops {
		t.Fatalf("per-thread ops %d != total %d", sum, res.Ops)
	}
	if res.VirtualNs < 500_000 {
		t.Fatalf("makespan %d below horizon", res.VirtualNs)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{
		Topo:      numa.TwoSocketXeonE5(),
		Costs:     memsim.DefaultCosts2S(),
		Threads:   6,
		HorizonNs: 400_000,
		Build:     KVMap(DefaultKVMap(), LockCNA),
	}
	a, b := Run(cfg), Run(cfg)
	if a.Ops != b.Ops || a.VirtualNs != b.VirtualNs {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestFig6Shape checks the paper's headline curve: MCS collapses from 1
// to 2 threads and stays flat; CNA matches MCS at 1 thread and beats it
// substantially under contention; all NUMA-aware locks land in a band
// above MCS.
func TestFig6Shape(t *testing.T) {
	sc := midScale()
	f6, f7, f8 := Fig060708(sc)

	// Collapse: MCS at 2 threads loses at least half its single-thread
	// throughput and never recovers.
	mcs1, mcs2, mcs36 := at(t, &f6, "MCS", 1), at(t, &f6, "MCS", 2), at(t, &f6, "MCS", 36)
	if mcs2 > mcs1/2 {
		t.Errorf("MCS did not collapse: 1T=%.2f 2T=%.2f", mcs1, mcs2)
	}
	if mcs36 > mcs1/2 {
		t.Errorf("MCS recovered under contention: 1T=%.2f 36T=%.2f", mcs1, mcs36)
	}

	// Single thread: CNA within 5% of MCS.
	cna1 := at(t, &f6, "CNA", 1)
	if cna1 < 0.95*mcs1 {
		t.Errorf("CNA single-thread %.2f below 95%% of MCS %.2f", cna1, mcs1)
	}

	// Contended: CNA at least 25% over MCS (paper: ~39%+ on 2 sockets).
	cna36 := at(t, &f6, "CNA", 36)
	if cna36 < 1.25*mcs36 {
		t.Errorf("CNA 36T %.2f not >=1.25x MCS %.2f", cna36, mcs36)
	}

	// NUMA-aware locks perform at a similar level (within 2x of each
	// other, all above MCS).
	for _, name := range []string{"C-BO-MCS", "HMCS"} {
		v := at(t, &f6, name, 36)
		if v < mcs36 {
			t.Errorf("%s 36T %.2f below MCS %.2f", name, v, mcs36)
		}
		if v > 2*cna36 || v < cna36/2 {
			t.Errorf("%s 36T %.2f not within 2x of CNA %.2f", name, v, cna36)
		}
	}

	// Figure 7: the throughput gap is explained by LLC misses — MCS's
	// miss rate under contention must dwarf CNA's.
	mcsMiss, cnaMiss := at(t, &f7, "MCS", 36), at(t, &f7, "CNA", 36)
	if cnaMiss >= mcsMiss/4 {
		t.Errorf("CNA misses/op %.3f not well below MCS %.3f", cnaMiss, mcsMiss)
	}
	// And the collapse interval shows the sharp miss-rate jump.
	if at(t, &f7, "MCS", 2) < 10*at(t, &f7, "MCS", 1) {
		t.Errorf("no sharp LLC miss increase between 1 and 2 threads")
	}

	// Figure 8: MCS is strictly fair; CNA stays moderate; C-BO-MCS is
	// wildly unfair (backoff starvation).
	if v := at(t, &f8, "MCS", 36); v > 0.52 {
		t.Errorf("MCS fairness %.3f, want ~0.5", v)
	}
	if v := at(t, &f8, "CNA", 36); v > 0.75 {
		t.Errorf("CNA fairness %.3f, want < 0.75", v)
	}
	if v := at(t, &f8, "C-BO-MCS", 36); v < 0.7 {
		t.Errorf("C-BO-MCS fairness %.3f, want close to 1", v)
	}
}

// TestFig9Shape: with external work the benchmark scales before the lock
// saturates, and CNA (opt) repairs CNA's light-contention dip.
func TestFig9Shape(t *testing.T) {
	sc := midScale()
	sc.Counts2S = []int{1, 2, 4, 8, 36}
	fig := Fig09(sc)

	// Scaling at low threads: MCS throughput grows 1 -> 2 threads.
	if at(t, &fig, "MCS", 2) <= at(t, &fig, "MCS", 1) {
		t.Errorf("no scaling with external work: MCS 1T=%.2f 2T=%.2f",
			at(t, &fig, "MCS", 1), at(t, &fig, "MCS", 2))
	}
	// Under saturation CNA wins again.
	if at(t, &fig, "CNA", 36) < 1.15*at(t, &fig, "MCS", 36) {
		t.Errorf("CNA 36T %.2f not above MCS %.2f with external work",
			at(t, &fig, "CNA", 36), at(t, &fig, "MCS", 36))
	}
	// CNA (opt) >= CNA at the light-contention point (the paper's 4-8
	// thread dip), within noise.
	if at(t, &fig, "CNA-opt", 4) < 0.95*at(t, &fig, "CNA", 4) {
		t.Errorf("shuffle reduction hurt light contention: opt=%.2f plain=%.2f",
			at(t, &fig, "CNA-opt", 4), at(t, &fig, "CNA", 4))
	}
}

// TestFig10Shape: the 4-socket machine's pricier remote misses widen the
// CNA/MCS gap (paper: 97% at 142 threads vs 39% on 2 sockets).
func TestFig10Shape(t *testing.T) {
	sc := midScale()
	f6, _, _ := Fig060708(sc)
	f10 := Fig10(sc)
	gap2S := at(t, &f6, "CNA", 36) / at(t, &f6, "MCS", 36)
	gap4S := at(t, &f10, "CNA", 36) / at(t, &f10, "MCS", 36)
	if gap4S <= gap2S {
		t.Errorf("4-socket CNA/MCS gap %.2f not above 2-socket %.2f", gap4S, gap2S)
	}
	if gap4S < 1.5 {
		t.Errorf("4-socket gap %.2f, want >= 1.5 (paper: ~2x)", gap4S)
	}
}

// TestFig11Shape: pre-filled DB scales before CNA wins; empty DB behaves
// like the no-external-work microbenchmark.
func TestFig11Shape(t *testing.T) {
	sc := midScale()
	sc.Counts2S = []int{1, 4, 36}
	a, b := Fig11(sc)
	if at(t, &a, "MCS", 4) <= at(t, &a, "MCS", 1) {
		t.Errorf("pre-filled DB does not scale at low threads")
	}
	if at(t, &a, "CNA", 36) < at(t, &a, "MCS", 36) {
		t.Errorf("pre-filled: CNA 36T below MCS")
	}
	if at(t, &b, "CNA", 36) < 1.2*at(t, &b, "MCS", 36) {
		t.Errorf("empty DB: CNA 36T %.2f not well above MCS %.2f",
			at(t, &b, "CNA", 36), at(t, &b, "MCS", 36))
	}
	// The other NUMA-aware locks beat MCS at 36 threads in both panels.
	for _, f := range []*Figure{&a, &b} {
		mcs := at(t, f, LockMCS.String(), 36)
		for _, lock := range []LockChoice{LockCNAOpt, LockCBOMCS, LockHMCS} {
			if v := at(t, f, lock.String(), 36); v <= mcs {
				t.Errorf("%s: %s 36T %.2f not above MCS %.2f", f.ID, lock, v, mcs)
			}
		}
	}
}

// TestFig12Shape: Kyoto does not scale (single thread is the best), CNA
// matches MCS at 1 thread and beats it at high counts (paper: 28-43%).
func TestFig12Shape(t *testing.T) {
	sc := midScale()
	fig := Fig12(sc)
	if at(t, &fig, "MCS", 36) > at(t, &fig, "MCS", 1) {
		t.Errorf("Kyoto scaled under contention; the paper's does not")
	}
	if at(t, &fig, "CNA", 1) < 0.93*at(t, &fig, "MCS", 1) {
		t.Errorf("CNA 1T %.2f below MCS %.2f", at(t, &fig, "CNA", 1), at(t, &fig, "MCS", 1))
	}
	if at(t, &fig, "CNA", 36) < 1.15*at(t, &fig, "MCS", 36) {
		t.Errorf("CNA 36T %.2f not above MCS %.2f", at(t, &fig, "CNA", 36), at(t, &fig, "MCS", 36))
	}
}

// TestFig13Shape: the CNA qspinlock beats stock under contention, and
// lockstat (shared writes in the critical section) widens the gap.
func TestFig13Shape(t *testing.T) {
	sc := midScale()
	a, b := Fig13(sc)
	gapPlain := at(t, &a, "CNA", 36) / at(t, &a, "stock", 36)
	gapStat := at(t, &b, "CNA", 36) / at(t, &b, "stock", 36)
	if gapPlain < 1.05 {
		t.Errorf("locktorture: CNA/stock gap %.2f, want > 1.05", gapPlain)
	}
	if gapStat <= gapPlain {
		t.Errorf("lockstat did not widen the gap: plain %.2f stat %.2f", gapPlain, gapStat)
	}
	// At a single thread the two slow paths are equivalent (fast path
	// dominates).
	r1 := at(t, &a, "CNA", 1) / at(t, &a, "stock", 1)
	if r1 < 0.97 || r1 > 1.03 {
		t.Errorf("single-thread CNA/stock ratio %.3f, want ~1", r1)
	}
}

// TestFig14Shape: the 4-socket locktorture gap exceeds the 2-socket one
// (paper: up to 65% / 99% vs 14% / 32%).
func TestFig14Shape(t *testing.T) {
	sc := midScale()
	a2, _ := Fig13(sc)
	a4, b4 := Fig14(sc)
	gap2 := at(t, &a2, "CNA", 36) / at(t, &a2, "stock", 36)
	gap4 := at(t, &a4, "CNA", 36) / at(t, &a4, "stock", 36)
	if gap4 <= gap2 {
		t.Errorf("4-socket locktorture gap %.2f not above 2-socket %.2f", gap4, gap2)
	}
	gap4stat := at(t, &b4, "CNA", 36) / at(t, &b4, "stock", 36)
	if gap4stat <= gap4 {
		t.Errorf("4-socket lockstat gap %.2f not above default %.2f", gap4stat, gap4)
	}
}

// TestFig15Shape: every will-it-scale panel has CNA at or above stock
// under contention and roughly equal at low thread counts.
func TestFig15Shape(t *testing.T) {
	sc := midScale()
	sc.Counts2S = []int{1, 2, 36}
	for _, fig := range Fig15(sc) {
		fig := fig
		cna36, stock36 := at(t, &fig, "CNA", 36), at(t, &fig, "stock", 36)
		if cna36 < stock36 {
			t.Errorf("%s: CNA 36T %.2f below stock %.2f", fig.ID, cna36, stock36)
		}
		r1 := at(t, &fig, "CNA", 1) / at(t, &fig, "stock", 1)
		if r1 < 0.95 || r1 > 1.05 {
			t.Errorf("%s: single-thread ratio %.3f", fig.ID, r1)
		}
	}
}

// TestTableOne: the measured contention report names the paper's locks.
func TestTableOne(t *testing.T) {
	sc := midScale()
	out := TableOne(sc, 36)
	for _, want := range []string{
		"lock1_threads", "lock2_threads", "open1_threads", "open2_threads",
		"files_struct.file_lock", "file_lock_context.flc_lock", "lockref.lock",
		"posix_lock_inode", "__alloc_fd", "__close_fd", "dput",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

// TestUpdateOnlyWidensGap reproduces the paper's prose claim: an
// update-only op mix increases CNA's advantage (50% vs 39% at 70
// threads) because more shared data migrates with the lock.
func TestUpdateOnlyWidensGap(t *testing.T) {
	sc := midScale()
	topo := numa.TwoSocketXeonE5()
	costs := memsim.DefaultCosts2S()
	gap := func(cfg KVMapConfig) float64 {
		m := Run(Config{Topo: topo, Costs: costs, Threads: 36, HorizonNs: sc.HorizonNs, Build: KVMap(cfg, LockMCS)})
		c := Run(Config{Topo: topo, Costs: costs, Threads: 36, HorizonNs: sc.HorizonNs, Build: KVMap(cfg, LockCNA)})
		return c.Throughput / m.Throughput
	}
	readMostly := gap(DefaultKVMap())
	updateOnly := gap(UpdateOnlyKVMap())
	if updateOnly <= readMostly {
		t.Errorf("update-only gap %.2f not above read-mostly %.2f", updateOnly, readMostly)
	}
}

func TestFigureRendering(t *testing.T) {
	sc := Scale{HorizonNs: 300_000, Counts2S: []int{1, 2}, Counts4S: []int{1, 2}}
	fig := Fig09(sc)
	tbl := fig.Table()
	if !strings.Contains(tbl, "fig09") || !strings.Contains(tbl, "CNA-opt") {
		t.Errorf("table rendering broken:\n%s", tbl)
	}
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "threads,") {
		t.Errorf("CSV rendering broken: %q", csv)
	}
}

// TestSweepPanicSurfacesInCaller checks that a Builder panicking for one
// thread count makes Sweep panic in the caller's goroutine with that
// value, as a sequential loop would. A panic left in a worker goroutine
// would end the test binary instead.
func TestSweepPanicSurfacesInCaller(t *testing.T) {
	type sentinel struct{ threads int }
	build := func(s *memsim.Sim, n int) OpFunc {
		if n == 2 {
			panic(sentinel{n})
		}
		return KVMap(DefaultKVMap(), LockMCS)(s, n)
	}
	var got any
	func() {
		defer func() { got = recover() }()
		Sweep(numa.TwoSocketXeonE5(), memsim.DefaultCosts2S(), 100_000, []int{1, 2, 4, 8}, build)
	}()
	if got != (sentinel{2}) {
		t.Fatalf("Sweep panicked with %v, want %v", got, sentinel{2})
	}
}

// TestSweepOrderIndependentOfProcs checks that a short sweep returns the
// same Results, in the order of its thread counts, at GOMAXPROCS 1 and 2.
func TestSweepOrderIndependentOfProcs(t *testing.T) {
	sweep := func(procs int) []Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return Sweep(numa.TwoSocketXeonE5(), memsim.DefaultCosts2S(), 200_000, []int{8, 1, 4, 2}, KVMap(DefaultKVMap(), LockCNA))
	}
	one, two := sweep(1), sweep(2)
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("Sweep at GOMAXPROCS 1 and 2 differ:\n%+v\n%+v", one, two)
	}
	for i, n := range []int{8, 1, 4, 2} {
		if one[i].Threads != n {
			t.Errorf("result %d is for %d threads, want %d", i, one[i].Threads, n)
		}
	}
}

// BenchmarkSimKVMap times the reference simulation of the repository
// benchmark's sim-kvmap workload: the Figure 6 point (KV-map under CNA,
// 36 threads on the 2-socket machine) at the full-scale 12 ms horizon.
func BenchmarkSimKVMap(b *testing.B) {
	cfg := Config{
		Topo:      numa.TwoSocketXeonE5(),
		Costs:     memsim.DefaultCosts2S(),
		Threads:   36,
		HorizonNs: FullScale().HorizonNs,
		Build:     KVMap(DefaultKVMap(), LockCNA),
	}
	for b.Loop() {
		Run(cfg)
	}
}
