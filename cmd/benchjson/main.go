// benchjson is the perf-regression pipeline's measurement step: it runs
// the real-lock sweeps whose wall-clock numbers are meaningful on any
// host — uncontended acquire/release latency (the single-thread row of
// the paper's Figure 6) and a contended sweep of every registered lock
// across a thread ladder and every registered workload (the shared-
// counter spin loop plus the kernel-sim lockref/dcache/files/posixlock
// drivers) — and writes the results as a machine-readable JSON report
// with per-op latency percentiles. The default ladder includes
// oversubscribed rungs at 2x and 4x GOMAXPROCS (threads beyond the
// processor count wrap around the virtual topology), so each report
// carries the spin-collapse vs. park crossover of the registered
// "*-park" lock variants; every result is stamped with its lock's
// wait_policy.
//
// The rwmix sweep (-readratios, on by default) adds the read-ratio
// axis: a dcache-shaped read/write mix at 0/50/90/99/100% reads over
// every reader-writer lock ("cna-rw", "std-rw", ...) and its exclusive
// base, at one thread, one thread per socket, and GOMAXPROCS — the
// tables that show what per-socket reader admission buys as the mix
// shifts read-mostly.
//
// The collapse sweep (-collapse, on by default) adds the saturated-
// collapse axis: a cache-thrashing critical section plus a 256KiB
// per-goroutine private working set, swept over every concurrency-
// restriction lock ("cna-cr", "std-cr", ...) and its unwrapped base at
// one thread per socket (each lock's own peak) and deeply
// oversubscribed rungs at 8x/16x/32x/64x GOMAXPROCS. Circulating
// goroutines drag their private blocks through the cache between
// acquisitions, so unrestricted locks collapse as the rungs deepen
// while the "*-cr" gates keep a socket-sized active set circulating
// and hold their peak — the "Collapse" retention table in
// BENCHMARKS.md, gated in CI via -collapsegate.
//
// The go-native mode (-gonative, on by default) additionally measures
// every lock through the goroutine-native adapter (repro.NewMutex):
// the uncontended sweep repeated with per-acquisition thread-slot
// claiming — rendered as the regression-gated "Adapter overhead" table
// in BENCHMARKS.md — plus one contended spin-native rung. The stdlib
// baselines std/std-rw appear in every sweep like any other registered
// lock, so CNA is always read against sync.Mutex.
//
// The checked-in BENCH_locks.json at the repository root is the output
// of a full run (go run ./cmd/benchjson), giving the repository a
// trajectory of numbers over time; BENCHMARKS.md is the human-readable
// rendering of the same report (go run ./cmd/benchjson -md). CI runs
// the -short variant on every PR, archives the report as an artifact,
// and re-renders BENCHMARKS.md from the checked-in JSON (-render) to
// fail the build when the two drift apart.
//
// Locks are built through the registry with default options — in
// particular with statistics collection OFF, so the sweep measures
// exactly the hot paths a default-built lock ships with.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/gonative"
	"repro/internal/harness"
	"repro/internal/locknames"
	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/numa"
)

func main() {
	var (
		out      = flag.String("out", "BENCH_locks.json", "output file for the JSON report")
		lockList = flag.String("locks", "all", "comma-separated lock names (see README), or 'all'")
		wlList   = flag.String("workloads", "all", "comma-separated contended workload names, or 'all'")
		threads  = flag.String("threads", "", "comma-separated contended thread counts; 'Nx' entries mean N*GOMAXPROCS (default: the 1,2,4,8 ladder plus socket count, GOMAXPROCS and the oversubscribed 2x/4x rungs)")
		short    = flag.Bool("short", false, "smoke mode for CI: ~4x shorter measurement windows and fewer repeats (noisier numbers)")
		ratios   = flag.String("readratios", "0,50,90,99,100", "comma-separated read percentages for the rwmix sweep over the reader-writer locks and their exclusive bases (empty disables the sweep)")
		goNative = flag.Bool("gonative", true, "include the go-native sweeps: adapter-overhead latency per lock plus a contended spin-native rung")
		gate     = flag.String("gonativegate", "", "adapter-overhead ratio gate, LOCK:BASE:RATIO (e.g. CNA-fissile:std:1.1): after the sweep, fail unless go-native uncontended ns/op of LOCK / BASE <= RATIO; both locks must be in -locks and -gonative enabled")
		collapse = flag.String("collapse", "2,8x,16x,32x,64x", "comma-separated thread rungs for the saturated-collapse sweep over the concurrency-restriction locks and their bases; 'Nx' means N*GOMAXPROCS (empty disables the sweep; -short drops rungs above 32x)")
		clGate   = flag.String("collapsegate", "", "collapse-retention gate, LOCK:BASE[:RATIO] (e.g. std-cr:std): after the sweep, fail unless LOCK's deep-rung retention of its own peak is >= RATIO (default 1.0) times BASE's; both locks must be in the collapse sweep")
		md       = flag.Bool("md", false, "also render the report as markdown (see -mdout)")
		mdOut    = flag.String("mdout", "BENCHMARKS.md", "output file for the markdown rendering")
		render   = flag.Bool("render", false, "skip measurement: re-render -mdout from the existing -out JSON (implies -md)")
	)
	flag.Parse()

	if *render {
		report, err := readReportFile(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := writeMarkdownFile(*mdOut, report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("rendered %s from %s\n", *mdOut, *out)
		return
	}

	specs, err := lockreg.Resolve(*lockList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	workloads, err := lockreg.ResolveWorkloads(*wlList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	env := lockreg.Env{Topology: numa.TwoSocketXeonE5()}
	counts, err := parseCounts(*threads, env.Sockets())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	readPcts, err := parseRatios(*ratios)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	clRungs, err := parseCollapseRungs(*collapse, *short)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	env.MaxThreads = counts[len(counts)-1]

	// Durations: long enough for a stable average on a quiet host, short
	// enough that the CI smoke run stays in seconds. Oversubscribed
	// rungs (threads > GOMAXPROCS) get much longer windows: their
	// dynamics are bimodal — stretches of uncontended monopoly inside a
	// scheduler quantum alternating with handover convoys — and short
	// windows sample one mode or the other instead of the mixture.
	const oversubFullDur = 300 * time.Millisecond
	latencyBudget := 100 * time.Millisecond
	contendedDur := 50 * time.Millisecond
	oversubDur := oversubFullDur
	repeats := 3
	if *short {
		latencyBudget = 20 * time.Millisecond
		contendedDur = 10 * time.Millisecond
		oversubDur = 60 * time.Millisecond
		repeats = 2
	}

	// Baseline for the regression diff: the previous checked-in report,
	// read before it is overwritten. Best-effort — a missing or
	// unreadable file just means no diff — and only like-for-like: a
	// smoke run diffed against a full-sweep baseline (or vice versa)
	// would flag systematic duration-dependent movement, not
	// regressions.
	var prevResults []harness.Result
	if prev, err := readReportFile(*out); err == nil && prev.Short == *short {
		prevResults = prev.Results
	}

	var results []harness.Result

	// Sweep 1: uncontended acquire/release latency, one thread.
	for _, spec := range specs {
		results = append(results, uncontendedLatency(spec, env, latencyBudget))
	}

	// Sweep 1b: the same single-thread pairs through the goroutine-
	// native adapter (repro.NewMutex's path). Together with sweep 1 this
	// is the regression-gated adapter-overhead table in BENCHMARKS.md.
	if *goNative {
		for _, spec := range specs {
			results = append(results, nativeUncontendedLatency(spec, env, latencyBudget))
		}
	}

	// Sweep 2: every workload × every lock × the thread ladder, with
	// per-op latency sampling feeding the percentile columns.
	for _, wl := range workloads {
		for _, spec := range specs {
			for _, n := range counts {
				dur := contendedDur
				if n > runtime.GOMAXPROCS(0) {
					dur = oversubDur
				}
				r := harness.Run(harness.Config{
					Name:         fmt.Sprintf("contended/%s/t%d/%s", wl.Name, n, spec.Name),
					Topo:         env.Topology,
					Threads:      n,
					Duration:     dur,
					Repeats:      repeats,
					SamplePeriod: 64,
				}, wl.Make(spec, env))
				r.Lock = spec.Name
				r.Workload = wl.Name
				r.WaitPolicy = spec.Wait
				results = append(results, r)
			}
		}
	}

	// Sweep 2b: one contended go-native rung — the spin workload driven
	// through the adapter from anonymous goroutines, so slot claiming
	// and the lock protocol are measured together under contention.
	if *goNative {
		const nativeThreads = 4
		for _, spec := range specs {
			r := harness.Run(harness.Config{
				Name:         fmt.Sprintf("contended/spin-native/t%d/%s", nativeThreads, spec.Name),
				Topo:         env.Topology,
				Threads:      nativeThreads,
				Duration:     contendedDur,
				Repeats:      repeats,
				SamplePeriod: 64,
			}, nativeSpinWorkload(spec, env).Threaded())
			r.Lock = spec.Name
			r.Workload = "spin-native"
			r.WaitPolicy = spec.Wait
			results = append(results, r)
		}
	}

	// Sweep 3: the read-ratio axis — the dcache-shaped read/write mix
	// over every reader-writer spec and its exclusive base (the base
	// serves reads through plain Lock, so each rwmix table reads as
	// "what does the read side buy at this ratio"). Rungs: single
	// thread, one thread per socket (the acceptance point for the RW
	// construction), and GOMAXPROCS.
	if len(readPcts) > 0 {
		rwSpecs := rwSweepSpecs(specs)
		rwRungs := dedupSorted([]int{1, env.Sockets(), runtime.GOMAXPROCS(0)})
		for _, pct := range readPcts {
			wlName := fmt.Sprintf("rwmix-%d", pct)
			for _, spec := range rwSpecs {
				for _, n := range rwRungs {
					dur := contendedDur
					if n > runtime.GOMAXPROCS(0) {
						dur = oversubDur
					}
					r := harness.Run(harness.Config{
						Name:         fmt.Sprintf("contended/%s/t%d/%s", wlName, n, spec.Name),
						Topo:         env.Topology,
						Threads:      n,
						Duration:     dur,
						Repeats:      repeats,
						SamplePeriod: 64,
					}, rwMixWorkload(spec, env, pct))
					r.Lock = spec.Name
					r.Workload = wlName
					r.WaitPolicy = spec.Wait
					results = append(results, r)
				}
			}
		}
	}

	// Sweep 4: the saturated-collapse axis — the cache-thrashing mix over
	// every concurrency-restriction spec and its unwrapped base, at each
	// lock's own peak rung and the deep oversubscription rungs. Windows
	// stay at the full oversubscribed length even in -short: collapse
	// dynamics are scheduler-quantum-scale, and a shorter window samples
	// one monopoly stretch instead of the steady state (the smoke run is
	// kept cheap by dropping rungs, not by shrinking windows).
	if len(clRungs) > 0 {
		for _, spec := range collapseSweepSpecs(specs) {
			for _, n := range clRungs {
				r := harness.Run(harness.Config{
					Name:         fmt.Sprintf("contended/collapse/t%d/%s", n, spec.Name),
					Topo:         env.Topology,
					Threads:      n,
					Duration:     oversubFullDur,
					Repeats:      repeats,
					SamplePeriod: 64,
				}, collapseWorkload(spec, env))
				r.Lock = spec.Name
				r.Workload = "collapse"
				r.WaitPolicy = spec.Wait
				results = append(results, r)
			}
		}
	}

	report := harness.NewReport(*short, results)
	// Reporting threshold 10%: contended numbers on shared hosts are
	// noisy; the diff flags movements worth a look, it is not a gate.
	report.Regressions = harness.CompareResults(prevResults, results, 0.10)

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := report.WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *md {
		if err := writeMarkdownFile(*mdOut, report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Print(harness.FormatResults(results))
	fmt.Printf("\nwrote %d results to %s", len(results), *out)
	if *md {
		fmt.Printf(" and %s", *mdOut)
	}
	fmt.Println()

	if *gate != "" {
		if err := checkGoNativeGate(*gate, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *clGate != "" {
		if err := checkCollapseGate(*clGate, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// checkGoNativeGate enforces a -gonativegate spec against the run's own
// go-native uncontended results. The gate is a CI guard for the fused
// fast paths: "CNA-fissile:std:1.1" fails the run if the drop-in
// CNA-fissile pair costs more than 1.1x sync.Mutex's. It reads the
// results just measured — not the checked-in baseline — so the gate
// tracks the runner it executes on.
func checkGoNativeGate(gate string, results []harness.Result) error {
	parts := strings.Split(gate, ":")
	if len(parts) != 3 {
		return fmt.Errorf("benchjson: bad -gonativegate %q: want LOCK:BASE:RATIO", gate)
	}
	maxRatio, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil || maxRatio <= 0 {
		return fmt.Errorf("benchjson: bad -gonativegate ratio %q", parts[2])
	}
	nsOf := func(lock string) (float64, error) {
		spec, ok := lockreg.Lookup(lock)
		if !ok {
			return 0, lockreg.UnknownLockError(lock)
		}
		for _, r := range results {
			if r.Workload == "go-native" && r.Lock == spec.Name {
				return r.NsPerOp, nil
			}
		}
		return 0, fmt.Errorf("benchjson: -gonativegate lock %q has no go-native result in this run (is it in -locks, with -gonative on?)", lock)
	}
	lockNs, err := nsOf(parts[0])
	if err != nil {
		return err
	}
	baseNs, err := nsOf(parts[1])
	if err != nil {
		return err
	}
	ratio := lockNs / baseNs
	fmt.Printf("gonativegate: %s %.2fns / %s %.2fns = %.3fx (max %.3fx)\n",
		parts[0], lockNs, parts[1], baseNs, ratio, maxRatio)
	if ratio > maxRatio {
		return fmt.Errorf("benchjson: adapter-overhead gate failed: go-native %s is %.3fx of %s, above the %.3fx bound",
			parts[0], ratio, parts[1], maxRatio)
	}
	return nil
}

func readReportFile(path string) (harness.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return harness.Report{}, err
	}
	defer f.Close()
	return harness.ReadReport(f)
}

// writeMarkdownFile renders the report with the registry's workload
// descriptions, so BENCHMARKS.md stays a pure function of the JSON plus
// the registered workload set.
func writeMarkdownFile(path string, report harness.Report) error {
	// The uncontended section describes itself in the renderer; info
	// covers the registered contended workloads plus the benchjson-local
	// go-native spin rung (not a registry workload: the registry cannot
	// depend on the adapter package that wraps its own specs).
	info := map[string]harness.WorkloadInfo{
		"spin-native": {Description: "The spin workload driven through the goroutine-native " +
			"adapter (repro.NewMutex): anonymous goroutines, thread slots claimed per acquisition — " +
			"the drop-in sync.Mutex usage pattern under contention."},
		"collapse": {Description: "The saturated-collapse mix: 32 strided read-modify-writes " +
			"through a 256KiB shared table inside the lock, 256 strided RMWs through the " +
			"goroutine's own 256KiB private block outside it, then a yield. Deep rungs cycle " +
			"dozens of private working sets through the cache unless an admission gate keeps " +
			"the circulating set small — see the Collapse retention table below."},
	}
	for _, wl := range lockreg.Workloads() {
		info[wl.Name] = harness.WorkloadInfo{Description: wl.Description, PaperRef: wl.PaperRef}
	}
	// The rwmix workloads are benchjson-local too (one per swept read
	// ratio); derive their entries from the report so -render needs no
	// flag state.
	for _, r := range report.Results {
		wl := r.Workload
		if _, done := info[wl]; done || !strings.HasPrefix(wl, "rwmix-") {
			continue
		}
		pct := strings.TrimPrefix(wl, "rwmix-")
		info[wl] = harness.WorkloadInfo{Description: fmt.Sprintf(
			"The read-ratio axis at %s%% reads: a dcache-shaped mix (reads chase three dependent "+
				"table probes, writes bump a version and update a slot). \"-rw\" locks serve reads "+
				"under per-socket read indicators; their exclusive bases run the identical mix with "+
				"reads under plain Lock.", pct)}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := harness.WriteMarkdown(f, report, info); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bestBatchLatency times batches of op() within a wall-clock budget —
// after one warmup batch that faults storage in and trains branch
// predictors — and reports (ns/op of the fastest batch, total ops): the
// usual best-of discipline for latency microbenchmarks, where the
// minimum is the run least disturbed by the host. One measurement
// discipline shared by the raw and go-native sweeps, so the rendered
// adapter-overhead ratio can never be skewed by the two drifting apart.
func bestBatchLatency(budget time.Duration, op func()) (nsPerOp float64, total uint64) {
	const batch = 20000
	for i := 0; i < batch; i++ {
		op()
	}
	best := time.Duration(1<<63 - 1)
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		if d := time.Since(start); d < best {
			best = d
		}
		total += batch
	}
	return float64(best.Nanoseconds()) / batch, total
}

// latencyResult wraps a bestBatchLatency measurement in the Result
// shape both uncontended sweeps share (single thread: trivially fair,
// see stats.FairnessFactor).
func latencyResult(workload string, spec lockreg.Spec, ns float64, total uint64) harness.Result {
	return harness.Result{
		Name:       workload + "/" + spec.Name,
		Lock:       spec.Name,
		Workload:   workload,
		WaitPolicy: spec.Wait,
		Threads:    1,
		NsPerOp:    ns,
		Throughput: 1000 / ns, // ops per microsecond
		Fairness:   0.5,
		TotalOps:   total,
	}
}

// uncontendedLatency measures one lock's raw *Thread acquire/release
// pair.
func uncontendedLatency(spec lockreg.Spec, env lockreg.Env, budget time.Duration) harness.Result {
	l := spec.Build(env)
	th := locks.NewThread(0, 0)
	ns, total := bestBatchLatency(budget, func() {
		l.Lock(th)
		l.Unlock(th)
	})
	return latencyResult("uncontended", spec, ns, total)
}

// nativeUncontendedLatency is uncontendedLatency through the
// goroutine-native adapter: the same discipline, with each op paying
// the adapter's full slot claim/release on top of the lock protocol.
// The one-slot pool makes the claim a guaranteed first-probe hit, i.e.
// this measures the adapter's floor, the number the 2x acceptance bound
// in the issue tracker gates on.
func nativeUncontendedLatency(spec lockreg.Spec, env lockreg.Env, budget time.Duration) harness.Result {
	e := env
	e.MaxThreads = 1
	l := gonative.Wrap(spec, e)
	ns, total := bestBatchLatency(budget, func() {
		l.Lock()
		l.Unlock()
	})
	return latencyResult("go-native", spec, ns, total)
}

// nativeSpinWorkload is the spin workload (shared counter under the
// lock) in goroutine-native form: the op function closes over the
// adapter alone, exactly like application code holding a sync.Mutex.
func nativeSpinWorkload(spec lockreg.Spec, env lockreg.Env) harness.NativeWorkload {
	return func(threads int) func(int) {
		e := env
		e.MaxThreads = threads
		m := gonative.Wrap(spec, e)
		var counter uint64
		return func(op int) {
			m.Lock()
			counter++
			m.Unlock()
		}
	}
}

// rwSweepSpecs filters the resolved specs down to the rwmix sweep's
// population: every reader-writer spec plus every spec that has a
// registered "-rw" derivative (its exclusive base — "std" qualifies
// through "std-rw"). Park variants and the simple spin locks have no
// read side and no derivative, so the read-ratio axis stays focused on
// the RW-vs-base comparison.
func rwSweepSpecs(specs []lockreg.Spec) []lockreg.Spec {
	var out []lockreg.Spec
	for _, s := range specs {
		if s.RW {
			out = append(out, s)
			continue
		}
		if _, ok := lockreg.Lookup(s.Name + locknames.RWSuffix); ok {
			out = append(out, s)
		}
	}
	return out
}

// rwMixWorkload is the benchjson-local dcache-shaped read/write mix:
// reads walk three dependent probes through a shared table (a path
// lookup's pointer chase), writes bump a version and update one slot.
// Locks with a read side serve reads under RLock; their exclusive
// bases run the identical mix with reads under plain Lock, so the
// rwmix tables isolate exactly what reader admission buys at each
// ratio. The mix is deterministic in the op index (op%100 < readPct),
// so every lock sees the same read/write sequence per thread.
func rwMixWorkload(spec lockreg.Spec, env lockreg.Env, readPct int) harness.Workload {
	return func(threads int) func(*locks.Thread, int) {
		e := env
		e.MaxThreads = threads
		m := spec.Build(e)
		rw, _ := m.(locks.RWMutex)
		const tableSize = 1024
		table := make([]uint64, tableSize)
		for i := range table {
			table[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		}
		var version uint64
		// Per-thread padded accumulators keep the probe results live
		// (the reads cannot be dead-code-eliminated) without the readers
		// sharing a cache line.
		acc := make([]uint64, threads*8)
		read := func(t *locks.Thread, op int) {
			h := uint64(op)*0x9e3779b97f4a7c15 + uint64(t.ID)
			for i := 0; i < 3; i++ {
				h = table[h%tableSize] + h>>7
			}
			acc[t.ID*8] += h
		}
		write := func() {
			version++
			table[version%tableSize] = version | 1
		}
		if rw != nil {
			return func(t *locks.Thread, op int) {
				if op%100 < readPct {
					rw.RLock(t)
					read(t, op)
					rw.RUnlock(t)
				} else {
					rw.Lock(t)
					write()
					rw.Unlock(t)
				}
			}
		}
		return func(t *locks.Thread, op int) {
			m.Lock(t)
			if op%100 < readPct {
				read(t, op)
			} else {
				write()
			}
			m.Unlock(t)
		}
	}
}

// collapseSweepSpecs filters the resolved specs down to the collapse
// sweep's population: every concurrency-restriction spec plus every
// spec with a registered "-cr" derivative (its unwrapped base), so the
// tables always read as gated-vs-unrestricted pairs.
func collapseSweepSpecs(specs []lockreg.Spec) []lockreg.Spec {
	var out []lockreg.Spec
	for _, s := range specs {
		if strings.HasSuffix(s.Name, locknames.CRSuffix) {
			out = append(out, s)
			continue
		}
		if _, ok := lockreg.Lookup(s.Name + locknames.CRSuffix); ok {
			out = append(out, s)
		}
	}
	return out
}

// parseCollapseRungs parses the -collapse rung list with the same Nx
// convention as -threads. In short mode the rungs above 32x GOMAXPROCS
// are dropped: the CI smoke run keeps the full 300ms windows (see the
// sweep comment), so the budget is capped by sweeping fewer rungs.
func parseCollapseRungs(s string, short bool) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	rungs, err := parseCounts(s, numa.TwoSocketXeonE5().Sockets)
	if err != nil {
		return nil, err
	}
	if short {
		limit := 32 * runtime.GOMAXPROCS(0)
		kept := rungs[:0]
		for _, n := range rungs {
			if n <= limit {
				kept = append(kept, n)
			}
		}
		rungs = kept
	}
	return rungs, nil
}

// collapseWorkload is the benchjson-local saturated-collapse mix. The
// critical section does 32 strided read-modify-writes through a 256KiB
// shared table; the non-critical section does 256 strided RMWs through
// the goroutine's own 256KiB private block, then yields (the scheduler
// touchpoint that lets the runtime multiplex threads > GOMAXPROCS).
// The private blocks are the collapse mechanism: with a handful of
// goroutines circulating, their blocks stay cache-resident between
// acquisitions; with dozens circulating round-robin, every acquisition
// re-faults a cold block through the shared cache and throughput
// falls. A concurrency-restriction gate keeps the circulating set
// small no matter how deep the rung, which is exactly what the
// retention column of the Collapse table measures.
func collapseWorkload(spec lockreg.Spec, env lockreg.Env) harness.Workload {
	return func(threads int) func(*locks.Thread, int) {
		e := env
		e.MaxThreads = threads
		m := spec.Build(e)
		const (
			words   = 1 << 15 // 256 KiB of uint64s
			mask    = words - 1
			csLines = 32  // cache lines touched inside the lock
			ncLines = 256 // cache lines touched in the private block
		)
		shared := make([]uint64, words)
		priv := make([][]uint64, threads)
		for i := range priv {
			priv[i] = make([]uint64, words)
		}
		// Per-thread stride cursors, padded a cache line apart.
		cur := make([]uint64, threads*8)
		return func(t *locks.Thread, op int) {
			c := cur[t.ID*8]
			m.Lock(t)
			for k := 0; k < csLines; k++ {
				c = (c + 8*uint64(k+1)) & mask
				shared[c] = shared[c]*6364136223846793005 + 1442695040888963407
			}
			m.Unlock(t)
			cur[t.ID*8] = c
			p := priv[t.ID]
			j := cur[t.ID*8+1]
			for k := 0; k < ncLines; k++ {
				j = (j + 8*37) & mask
				p[j] = p[j]*6364136223846793005 + 1442695040888963407
			}
			cur[t.ID*8+1] = j
			runtime.Gosched()
		}
	}
}

// checkCollapseGate enforces a -collapsegate spec against the run's own
// collapse-sweep results. "std-cr:std" fails the run unless the gated
// lock retained at least as much of its own peak throughput at the
// deepest swept rung as the unwrapped base did — the CI guard that the
// admission gate actually prevents the collapse it exists to prevent.
// An explicit third field sets the required retention ratio.
func checkCollapseGate(gate string, results []harness.Result) error {
	parts := strings.Split(gate, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return fmt.Errorf("benchjson: bad -collapsegate %q: want LOCK:BASE[:RATIO]", gate)
	}
	minRatio := 1.0
	if len(parts) == 3 {
		r, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil || r <= 0 {
			return fmt.Errorf("benchjson: bad -collapsegate ratio %q", parts[2])
		}
		minRatio = r
	}
	retention := func(lock string) (float64, int, int, error) {
		spec, ok := lockreg.Lookup(lock)
		if !ok {
			return 0, 0, 0, lockreg.UnknownLockError(lock)
		}
		var peakT, deepT int
		var peak, deep float64
		for _, r := range results {
			if r.Workload != "collapse" || r.Lock != spec.Name {
				continue
			}
			if peakT == 0 || r.Threads < peakT {
				peakT, peak = r.Threads, r.Throughput
			}
			if r.Threads > deepT {
				deepT, deep = r.Threads, r.Throughput
			}
		}
		if peakT == 0 || deepT == peakT {
			return 0, 0, 0, fmt.Errorf("benchjson: -collapsegate lock %q needs at least two collapse rungs in this run (is it in -locks, with -collapse set?)", lock)
		}
		if peak <= 0 {
			return 0, 0, 0, fmt.Errorf("benchjson: -collapsegate lock %q measured zero peak throughput", lock)
		}
		return deep / peak, peakT, deepT, nil
	}
	lockRet, _, deepT, err := retention(parts[0])
	if err != nil {
		return err
	}
	baseRet, _, _, err := retention(parts[1])
	if err != nil {
		return err
	}
	fmt.Printf("collapsegate: at t%d, %s retains %.3fx of its peak vs %s %.3fx (need >= %.2fx of base)\n",
		deepT, parts[0], lockRet, parts[1], baseRet, minRatio)
	if lockRet < minRatio*baseRet {
		return fmt.Errorf("benchjson: collapse gate failed: %s retention %.3fx is below %.2fx of %s's %.3fx",
			parts[0], lockRet, minRatio, parts[1], baseRet)
	}
	return nil
}

// parseRatios parses the -readratios list of read percentages in
// [0, 100]; empty disables the rwmix sweep.
func parseRatios(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 0 || n > 100 {
			return nil, fmt.Errorf("benchjson: bad read percentage %q in -readratios: use integers in [0, 100]", tok)
		}
		out = append(out, n)
	}
	return out, nil
}

// dedupSorted returns the distinct values of ns in ascending order.
func dedupSorted(ns []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, n := range ns {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// parseCounts parses a -threads list, or builds the default ladder: the
// 1,2,4,8 doubling rungs, the machine-shaped points the paper's sweeps
// pivot on (one thread per socket, GOMAXPROCS), and the oversubscribed
// rungs at 2x and 4x GOMAXPROCS — the regime where spinning waiters
// collapse and parked waiters should not, so the crossover is part of
// every checked-in sweep. Deduplicated and sorted. An entry of the form
// "Nx" means N*GOMAXPROCS, so CI can pin an oversubscription factor
// without knowing the runner's core count. Counts may exceed the
// virtual topology's CPUs: placement wraps workers around, modelling
// time-shared CPUs.
func parseCounts(s string, sockets int) ([]int, error) {
	gmp := runtime.GOMAXPROCS(0)
	var raw []int
	if strings.TrimSpace(s) == "" {
		raw = []int{1, 2, 4, 8, sockets, gmp, 2 * gmp, 4 * gmp}
	} else {
		for _, tok := range strings.Split(s, ",") {
			tok := strings.TrimSpace(tok)
			num, mult := tok, 1
			if rest, ok := strings.CutSuffix(tok, "x"); ok {
				num, mult = rest, gmp
			} else if rest, ok := strings.CutSuffix(tok, "X"); ok {
				// Accept the uppercase spelling too (CI configs and the
				// kvserver flag both write 32X).
				num, mult = rest, gmp
			}
			n, err := strconv.Atoi(num)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("benchjson: bad thread count %q", tok)
			}
			raw = append(raw, n*mult)
		}
	}
	return dedupSorted(raw), nil
}
