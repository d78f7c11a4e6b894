// Command locktorturebench runs the locktorture port (Section 7.2.1)
// against the stock and CNA qspinlock slow paths and reports total lock
// operations, throughput and fairness per writer count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/locktorture"
	"repro/internal/numa"
	"repro/internal/qspin"
)

func main() {
	threadsList := flag.String("writers", "1,2,4,8", "comma-separated writer counts")
	dur := flag.Duration("duration", 200*time.Millisecond, "run length")
	lockstat := flag.Bool("lockstat", false, "update shared statistics in the critical section")
	fourSocket := flag.Bool("4s", false, "use the 4-socket topology")
	flag.Parse()

	topo := numa.TwoSocketXeonE5()
	if *fourSocket {
		topo = numa.FourSocketXeonE7()
	}

	var counts []int
	for _, s := range strings.Split(*threadsList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "locktorturebench: bad writer count %q\n", s)
			os.Exit(2)
		}
		counts = append(counts, n)
	}

	fmt.Printf("%-8s %8s %14s %14s %10s\n", "policy", "writers", "total ops", "ops/us", "fairness")
	for _, writers := range counts {
		for _, policy := range []qspin.Policy{qspin.PolicyStock, qspin.PolicyCNA} {
			d := qspin.NewDomain(topo, policy)
			cfg := locktorture.DefaultConfig(writers, *dur)
			cfg.Lockstat = *lockstat
			res := locktorture.Run(d, cfg)
			fmt.Printf("%-8s %8d %14d %14.3f %10.3f\n",
				policy, writers, res.TotalOps, res.Throughput, res.Fairness)
		}
	}
}
