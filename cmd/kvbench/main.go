// Command kvbench runs the Section 7.1.1 key-value map microbenchmark
// with the real lock implementations and real goroutines: an AVL tree
// under a single lock, a configurable op mix, fixed-duration runs with
// per-thread op counts, throughput and the fairness factor.
//
// Locks are constructed through the internal/lockreg registry, so every
// registered algorithm is available by name: -locks all sweeps the full
// set, -list prints it.
//
// On a multi-core host these numbers compare the real locks end to end;
// the paper-shaped NUMA curves come from cmd/reproduce (virtual time).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/kvmap"
	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/numa"
)

func main() {
	lockNames := flag.String("locks", "MCS,CNA,C-BO-MCS,HMCS",
		"comma-separated locks to run, or \"all\" (see -list)")
	list := flag.Bool("list", false, "list the registered locks and exit")
	threadsList := flag.String("threads", "1,2,4,8", "comma-separated thread counts")
	dur := flag.Duration("duration", 200*time.Millisecond, "measured interval per run")
	repeats := flag.Int("repeats", 3, "runs to average (the paper uses 5)")
	keyRange := flag.Int("keyrange", 1024, "key range (map pre-filled to half)")
	updates := flag.Int("updates", 200, "update fraction in permille (paper: 200)")
	external := flag.Int("external", 0, "external-work loop iterations between ops")
	fourSocket := flag.Bool("4s", false, "use the 4-socket topology")
	flag.Parse()

	if *list {
		for _, spec := range lockreg.All() {
			fmt.Printf("%-10s %s\n", spec.Name, spec.Description)
		}
		return
	}

	topo := numa.TwoSocketXeonE5()
	if *fourSocket {
		topo = numa.FourSocketXeonE7()
	}

	var counts []int
	for _, s := range strings.Split(*threadsList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "kvbench: bad thread count %q\n", s)
			os.Exit(2)
		}
		counts = append(counts, n)
	}

	specs, err := lockreg.Resolve(*lockNames)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
		os.Exit(2)
	}

	var results []harness.Result
	for _, spec := range specs {
		workload := func(threads int) func(*locks.Thread, int) {
			env := lockreg.Env{MaxThreads: threads, Topology: topo}
			m := kvmap.NewMap(spec.Build(env))
			setup := locks.NewThread(0, 0)
			m.Prefill(setup, *keyRange, 1)
			w := kvmap.Workload{KeyRange: *keyRange, UpdatePermille: *updates, ExternalWork: *external}
			return func(t *locks.Thread, op int) { w.Op(m, t) }
		}
		rs := harness.Sweep(harness.Config{
			Name:     "kv/" + spec.Name,
			Topo:     topo,
			Duration: *dur,
			Repeats:  *repeats,
		}, counts, workload)
		results = append(results, rs...)
	}
	fmt.Print(harness.FormatResults(results))
}
