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
	"io"
	"os"
	"path/filepath"

	"repro/internal/simbench"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and writes the requested tables to w. A bad flag
// prints the usage and exits 2, and -h exits 0, as flag.Parse does.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("reproduce", flag.ExitOnError)
	fig := fs.Int("fig", 0, "regenerate only this figure (6..15; 0 = all)")
	table := fs.Int("table", 0, "regenerate only this table (1; 0 = per -fig)")
	quick := fs.Bool("quick", false, "scaled-down sweeps for smoke testing")
	csvDir := fs.String("csv", "", "directory to write per-figure CSV files into")
	ablations := fs.Bool("ablations", false, "also run the design-knob ablations")
	fs.Parse(args) // ExitOnError: Parse exits instead of returning an error

	sc := simbench.FullScale()
	if *quick {
		sc = simbench.QuickScale()
	}

	emit := func(figs ...simbench.Figure) error {
		for _, f := range figs {
			fmt.Fprintln(w, f.Table())
			if *csvDir != "" {
				path := filepath.Join(*csvDir, f.ID+".csv")
				if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
					return fmt.Errorf("writing %s: %w", path, err)
				}
			}
		}
		return nil
	}

	want := func(n int) bool { return (*fig == 0 && *table == 0) || *fig == n }

	if want(6) || want(7) || want(8) {
		f6, f7, f8 := simbench.Fig060708(sc)
		for i, f := range []simbench.Figure{f6, f7, f8} {
			if want(6 + i) {
				if err := emit(f); err != nil {
					return err
				}
			}
		}
	}
	if want(9) {
		if err := emit(simbench.Fig09(sc)); err != nil {
			return err
		}
	}
	if want(10) {
		if err := emit(simbench.Fig10(sc)); err != nil {
			return err
		}
	}
	if want(11) {
		if err := emit(simbench.Fig11(sc)); err != nil {
			return err
		}
	}
	if want(12) {
		if err := emit(simbench.Fig12(sc)); err != nil {
			return err
		}
	}
	if want(13) {
		if err := emit(simbench.Fig13(sc)); err != nil {
			return err
		}
	}
	if want(14) {
		if err := emit(simbench.Fig14(sc)); err != nil {
			return err
		}
	}
	if want(15) {
		if err := emit(simbench.Fig15(sc)...); err != nil {
			return err
		}
	}
	if (*fig == 0 && *table == 0) || *table == 1 {
		threads := 36
		if *quick {
			threads = 16
		}
		fmt.Fprintln(w, simbench.TableOne(sc, threads))
	}
	if *ablations {
		fmt.Fprintln(w, simbench.FairnessSweep(sc, 36))
		fmt.Fprintln(w, simbench.PlacementAblation(sc, 16))
	}
	return nil
}
