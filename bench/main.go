// Command bench is the repository benchmark: one workload per run,
// measured end to end through the public API of the serving stack
// (kvserver, gonative, lockreg, minikv) or of the simulated 2-socket
// machine (simbench, memsim, simlocks), with every output checked.
//
//	bash bench/run.sh --workload kv-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// a separate traced run reports the per-layer metrics and writes its
// spans. Each metric is printed as "workload metric value unit" with its
// quartiles and sample count, the full report (host shape included) is
// written as JSON to --out, and the last line of standard output is the
// summary object {"correct", "attempted", "failed", "metrics"}. A failed
// correctness gate exits 1; a host with GOMAXPROCS below 2 exits 2.
// README.md lists the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workers is the closed-loop client count: one request goroutine per
// CPU of the 2-CPU host the benchmark was defined on, fixed so results
// compare across hosts.
const workers = 2

// options sizes one run. The flags fill it; tests shrink it.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// short shrinks inputs (key counts, sim horizon, span buffers) to
	// test size.
	short bool
	// spans is the span file a traced run writes; empty writes none.
	spans string
}

// metric is one reported number with the spread behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Q1 and Q3 are the quartiles over trials (equal to Value for a
	// single measurement); Samples counts the observations behind Value.
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Samples uint64  `json:"samples"`
}

// report is the outcome of one run.
type report struct {
	Workload  string            `json:"workload"`
	Metrics   map[string]metric `json:"metrics"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	// Gates lists every correctness check that failed; empty means the
	// outputs were correct.
	Gates []string `json:"failed_gates"`
}

func newReport(workload string) *report {
	return &report{Workload: workload, Metrics: map[string]metric{}, Gates: []string{}}
}

func (r *report) set(name string, v float64, unit string, samples uint64) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Q1: v, Q3: v, Samples: samples}
}

// setTrials reports the median of per-trial values with their quartiles.
func (r *report) setTrials(name string, vs []float64, unit string, samples uint64) {
	q1, med, q3 := quartiles(vs)
	r.Metrics[name] = metric{Value: med, Unit: unit, Q1: q1, Q3: q3, Samples: samples}
}

func (r *report) gate(format string, args ...any) {
	r.Gates = append(r.Gates, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.Gates) == 0 && r.Failed == 0 }

// quartiles returns the first quartile, median and third quartile of
// vs, by the exclusive method of Python's statistics.quantiles.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - 4*j)
		lo, hi := s[max(j-1, 0)], s[min(j, n-1)]
		return (lo*(4-delta) + hi*delta) / 4
	}
	return q(1), med, q(3)
}

// e2eMetrics and layerMetrics name every metric a run reports, with its
// unit: a run without --trace reports exactly the first set, a traced
// run exactly the second. BENCHMARK.json lists the same names (the
// tests check the two agree). A layer that a workload does not cross
// reports 0.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_ns", "ns"},
	{"read_p99_ns", "ns"},
	{"write_p50_ns", "ns"},
	{"write_p99_ns", "ns"},
	{"lock_bytes", "B"},
	{"fairness", "ratio"},
}

var layerMetrics = []struct{ name, unit string }{
	{"kvserver.request_ns", "ns"},
	{"kvserver.self_ns", "ns"},
	{"kvserver.allocs_per_op", "1/op"},
	{"gonative.acquire_ns", "ns"},
	{"gonative.acquire_p99_ns", "ns"},
	{"gonative.release_ns", "ns"},
	{"gonative.read_acquire_ns", "ns"},
	{"gonative.self_ns", "ns"},
	{"gonative.slots_leaked", "count"},
	{"lock.acquire_ns", "ns"},
	{"lock.acquire_p99_ns", "ns"},
	{"lock.release_ns", "ns"},
	{"lock.read_acquire_ns", "ns"},
	{"fissile.fast_frac", "frac"},
	{"fissile.handbacks_per_mop", "1/Mop"},
	{"cna.remote_handover_frac", "frac"},
	{"cna.secondary_moves_per_kop", "1/kop"},
	{"cna.flushes_per_kop", "1/kop"},
	{"minikv.read_ns", "ns"},
	{"minikv.write_ns", "ns"},
	{"minikv.cs_ns", "ns"},
	{"memsim.llc_misses_per_op", "1/op"},
	{"simlocks.local_handover_frac", "frac"},
	{"simlocks.acquire_vns", "vns"},
	{"simlocks.cs_vns", "vns"},
	{"trace.overhead_frac", "frac"},
}

// workloadNames lists the workloads in the order README.md and
// BENCHMARK.json give them.
var workloadNames = []string{"kv-spread", "kv-hot", "kv-readmostly", "sim-kvmap"}

// run executes one workload and returns its report, holding exactly the
// metric set its mode promises.
func run(o options) (*report, error) {
	var r *report
	if o.workload == simWorkload {
		r = runSim(o)
	} else {
		c, ok := kvWorkloads[o.workload]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames, ", "))
		}
		if o.short {
			c = c.shrunk()
		}
		if o.trace {
			r = runKVTrace(o, c)
		} else {
			r = runKV(o, c)
		}
	}
	if r.Failed > 0 {
		r.gate("%d Gets missed a prefilled key", r.Failed)
	}
	want := e2eMetrics
	if o.trace {
		want = layerMetrics
	}
	all := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := r.Metrics[m.name]
		if !ok {
			v = metric{Unit: m.unit}
		}
		if v.Unit != m.unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", m.name, v.Unit, m.unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.gate("metric %s is %v", m.name, v.Value)
			v = metric{Unit: m.unit}
		}
		all[m.name] = v
	}
	r.Metrics = all
	return r, nil
}

// host records the machine shape a run was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
}

func hostShape(seed uint64) host {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   model,
		GoVersion:  runtime.Version(),
		Seed:       seed,
	}
}

func main() {
	var (
		o     options
		trace int
		out   string
	)
	flag.StringVar(&o.workload, "workload", "kv-hot", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&out, "out", "", "full JSON report (default .bench_build/results/<workload>-seed<n>-trace<t>.json)")
	flag.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/results/<workload>-seed<n>.spans)")
	flag.Parse()

	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: --trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: --seconds must be positive, got %v\n", o.seconds)
		os.Exit(2)
	}
	// At GOMAXPROCS=1 the two closed-loop clients time-slice one CPU,
	// and "contended" numbers measure the scheduler, not the locks.
	if p := runtime.GOMAXPROCS(0); p < workers {
		fmt.Fprintf(os.Stderr, "bench: GOMAXPROCS=%d; the benchmark needs at least %d to run its %d clients in parallel\n", p, workers, workers)
		os.Exit(2)
	}
	base := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	if out == "" {
		out = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-trace%d.json", base, trace))
	}
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(".bench_build", "results", base+".spans")
	}

	h := hostShape(o.seed)
	hb, _ := json.Marshal(h) // a struct of plain fields always marshals
	fmt.Printf("host %s\n", hb)

	start := time.Now()
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%s %s %s %s q1=%s q3=%s samples=%d\n", r.Workload, name, num(m.Value), m.Unit, num(m.Q1), num(m.Q3), m.Samples)
	}
	for _, g := range r.Gates {
		fmt.Fprintln(os.Stderr, "bench: gate failed:", g)
	}
	fmt.Printf("wall_s %.1f\n", time.Since(start).Seconds())

	if err := writeJSON(out, struct {
		Host    host    `json:"host"`
		Seconds float64 `json:"seconds"`
		Trace   bool    `json:"trace"`
		Correct bool    `json:"correct"`
		*report
	}{h, o.seconds, o.trace, r.correct(), r}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		summary.Metrics[name] = value{m.Value, m.Unit}
	}
	sb, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(sb))
	if !r.correct() {
		os.Exit(1)
	}
}

// num prints a value with every digit it was measured with.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}
