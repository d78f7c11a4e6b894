// Command kyotobench is the kccachetest-style driver for the kyoto cache
// DB (Section 7.1.3): the wicked mixed workload over a fixed key range,
// fixed-duration runs, with the slot locks constructed by name through
// the internal/lockreg registry (the paper interposes MCS and CNA; any
// registered lock works here).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/kyoto"
	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/numa"
)

func main() {
	lockNames := flag.String("locks", "CNA", "comma-separated locks to run, or \"all\"")
	threadsList := flag.String("threads", "1,2,4,8", "comma-separated thread counts")
	dur := flag.Duration("duration", 200*time.Millisecond, "measured interval")
	repeats := flag.Int("repeats", 3, "runs to average")
	keyRange := flag.Int("keyrange", 1<<20, "fixed key range (the paper pins 10M)")
	slots := flag.Int("slots", 1, "hash slots (1 concentrates contention like the interposed mutex)")
	flag.Parse()

	topo := numa.TwoSocketXeonE5()
	var counts []int
	for _, s := range strings.Split(*threadsList, ",") {
		var n int
		fmt.Sscanf(strings.TrimSpace(s), "%d", &n)
		if n >= 1 {
			counts = append(counts, n)
		}
	}

	specs, err := lockreg.Resolve(*lockNames)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kyotobench: %v\n", err)
		os.Exit(2)
	}

	var results []harness.Result
	for _, spec := range specs {
		workload := func(threads int) func(*locks.Thread, int) {
			// The slot locks queue the workers' own nodes (MCS, MCSCR,
			// CNA), like the kernel's per-CPU qspinlock nodes.
			env := lockreg.Env{MaxThreads: threads, Topology: topo}
			db := kyoto.New(*slots, func() locks.Mutex { return spec.Build(env) })
			w := kyoto.Wicked{KeyRange: *keyRange, ValueSize: 16}
			scratch := make([]byte, w.ValueSize)
			return func(t *locks.Thread, op int) { w.Op(db, t, scratch) }
		}
		results = append(results, harness.Sweep(harness.Config{
			Name:     "kyoto/" + spec.Name,
			Topo:     topo,
			Duration: *dur,
			Repeats:  *repeats,
		}, counts, workload)...)
	}
	fmt.Print(harness.FormatResults(results))
}
