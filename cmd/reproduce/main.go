// Command reproduce regenerates every table and figure of the paper's
// evaluation section on the simulated machine and prints the results as
// text tables on standard output; with -csv it also writes one CSV file
// per figure into the given directory.
//
// Usage:
//
//	reproduce                  # everything, full scale
//	reproduce -fig 6           # one figure
//	reproduce -table 1         # Table 1
//	reproduce -quick           # scaled-down sweep (CI-sized)
//	reproduce -csv dir         # also dump per-figure CSV files
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/simbench"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate only this figure (6..15; 0 = all)")
	table := flag.Int("table", 0, "regenerate only this table (1; 0 = per -fig)")
	quick := flag.Bool("quick", false, "scaled-down sweeps for smoke testing")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files into")
	ablations := flag.Bool("ablations", false, "also run the design-knob ablations")
	flag.Parse()

	sc := simbench.FullScale()
	if *quick {
		sc = simbench.QuickScale()
	}

	emit := func(f simbench.Figure) {
		fmt.Println(f.Table())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, f.ID+".csv")
			if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "reproduce: writing %s: %v\n", path, err)
				os.Exit(1)
			}
		}
	}

	want := func(n int) bool { return (*fig == 0 && *table == 0) || *fig == n }

	if want(6) || want(7) || want(8) {
		f6, f7, f8 := simbench.Fig060708(sc)
		if want(6) {
			emit(f6)
		}
		if want(7) {
			emit(f7)
		}
		if want(8) {
			emit(f8)
		}
	}
	if want(9) {
		emit(simbench.Fig09(sc))
	}
	if want(10) {
		emit(simbench.Fig10(sc))
	}
	if want(11) {
		a, b := simbench.Fig11(sc)
		emit(a)
		emit(b)
	}
	if want(12) {
		emit(simbench.Fig12(sc))
	}
	if want(13) {
		a, b := simbench.Fig13(sc)
		emit(a)
		emit(b)
	}
	if want(14) {
		a, b := simbench.Fig14(sc)
		emit(a)
		emit(b)
	}
	if want(15) {
		for _, f := range simbench.Fig15(sc) {
			emit(f)
		}
	}
	if (*fig == 0 && *table == 0) || *table == 1 {
		threads := 36
		if *quick {
			threads = 16
		}
		fmt.Println(simbench.TableOne(sc, threads))
	}
	if *ablations {
		fmt.Println(simbench.FairnessSweep(sc, 36))
		fmt.Println(simbench.PlacementAblation(sc, 16))
	}
}
