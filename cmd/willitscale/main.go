// Command willitscale runs the four Section 7.2.2 microbenchmarks on the
// kernelsim mini-VFS with the stock and CNA qspinlock.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/numa"
	"repro/internal/qspin"
	"repro/internal/willitscale"
)

func main() {
	benchName := flag.String("bench", "all", "lock1_threads|lock2_threads|open1_threads|open2_threads|all")
	threadsList := flag.String("threads", "1,2,4,8", "comma-separated thread counts")
	dur := flag.Duration("duration", 150*time.Millisecond, "run length")
	flag.Parse()

	var benches []willitscale.Bench
	if *benchName == "all" {
		benches = willitscale.All()
	} else {
		benches = []willitscale.Bench{willitscale.Bench(*benchName)}
	}

	var counts []int
	for _, s := range strings.Split(*threadsList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "willitscale: bad thread count %q\n", s)
			os.Exit(2)
		}
		counts = append(counts, n)
	}

	topo := numa.TwoSocketXeonE5()
	fmt.Printf("%-16s %-8s %8s %14s %10s\n", "benchmark", "policy", "threads", "ops/us", "fairness")
	for _, bench := range benches {
		for _, threads := range counts {
			for _, policy := range []qspin.Policy{qspin.PolicyStock, qspin.PolicyCNA} {
				d := qspin.NewDomain(topo, policy)
				res, err := willitscale.Run(bench, d, threads, *dur)
				if err != nil {
					fmt.Fprintf(os.Stderr, "willitscale: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("%-16s %-8s %8d %14.3f %10.3f\n",
					bench, policy, threads, res.Throughput, res.Fairness)
			}
		}
	}
}
