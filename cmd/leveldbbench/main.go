// Command leveldbbench is the db_bench-style driver for the minikv
// store (Section 7.1.2): fill a database, then run readrandom for a
// fixed duration under the chosen lock, with the pre-filled and empty
// configurations of Figure 11. The global DB mutex and the sharded LRU
// cache locks are built by name through the internal/lockreg registry
// and share one construction environment.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/minikv"
	"repro/internal/numa"
)

func main() {
	lockNames := flag.String("locks", "CNA", "comma-separated locks to run, or \"all\"")
	threadsList := flag.String("threads", "1,2,4,8", "comma-separated thread counts")
	dur := flag.Duration("duration", 200*time.Millisecond, "measured interval")
	repeats := flag.Int("repeats", 3, "runs to average")
	entries := flag.Int("entries", 100_000, "database size for the pre-filled mode")
	empty := flag.Bool("empty", false, "run the empty-database mode of Figure 11(b)")
	flag.Parse()

	topo := numa.TwoSocketXeonE5()
	var counts []int
	for _, s := range strings.Split(*threadsList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "leveldbbench: bad thread count %q\n", s)
			os.Exit(2)
		}
		counts = append(counts, n)
	}

	specs, err := lockreg.Resolve(*lockNames)
	if err != nil {
		fmt.Fprintf(os.Stderr, "leveldbbench: %v\n", err)
		os.Exit(2)
	}
	mode := "prefilled"
	if *empty {
		mode = "empty"
	}

	var results []harness.Result
	for _, spec := range specs {
		workload := func(threads int) func(*locks.Thread, int) {
			env := lockreg.Env{MaxThreads: threads, Topology: topo}
			opts := minikv.Options{GlobalLock: spec.Build(env)}
			keyRange := *entries
			if !*empty {
				opts.CacheShards = 16
				opts.CacheCapacity = *entries / 4
				opts.MkShardLock = func() locks.Mutex { return spec.Build(env) }
			} else {
				keyRange = 16 // "an empty database": searches find nothing
			}
			db := minikv.Open(opts)
			setup := locks.NewThread(0, 0)
			if !*empty {
				db.FillSequential(setup, *entries)
			}
			return func(t *locks.Thread, op int) { db.ReadRandom(t, keyRange) }
		}
		results = append(results, harness.Sweep(harness.Config{
			Name:     "leveldb/" + spec.Name + "/" + mode,
			Topo:     topo,
			Duration: *dur,
			Repeats:  *repeats,
		}, counts, workload)...)
	}
	fmt.Print(harness.FormatResults(results))
}
