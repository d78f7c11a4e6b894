package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvmap"
	"repro/internal/locks"
	"repro/internal/numa"
)

func kvWorkload(mk func(threads int) locks.Mutex) Workload {
	return func(threads int) func(*locks.Thread, int) {
		m := kvmap.NewMap(mk(threads))
		setup := locks.NewThread(0, 0)
		m.Prefill(setup, 256, 1)
		w := kvmap.Workload{KeyRange: 256, UpdatePermille: 200}
		return func(t *locks.Thread, op int) { w.Op(m, t) }
	}
}

func TestRunProducesOps(t *testing.T) {
	res := Run(Config{
		Name:     "kv/CNA",
		Topo:     numa.TwoSocketXeonE5(),
		Threads:  4,
		Duration: 50 * time.Millisecond,
		Repeats:  2,
	}, kvWorkload(func(n int) locks.Mutex { return core.New() }))
	if res.TotalOps == 0 {
		t.Fatal("no operations completed")
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
	if res.Fairness < 0.5 || res.Fairness > 1 {
		t.Fatalf("fairness = %v out of range", res.Fairness)
	}
}

func TestRunDefaultsNormalised(t *testing.T) {
	res := Run(Config{
		Name:    "kv/MCS",
		Topo:    numa.TwoSocketXeonE5(),
		Threads: 1,
		// Duration and Repeats left zero: must be normalised, not hang.
		Duration: 10 * time.Millisecond,
	}, kvWorkload(func(n int) locks.Mutex { return locks.NewMCS() }))
	if res.TotalOps == 0 {
		t.Fatal("no ops with default repeats")
	}
}

func TestSweep(t *testing.T) {
	results := Sweep(Config{
		Name:     "kv/MCS",
		Topo:     numa.TwoSocketXeonE5(),
		Duration: 20 * time.Millisecond,
		Repeats:  1,
	}, []int{1, 2}, kvWorkload(func(n int) locks.Mutex { return locks.NewMCS() }))
	if len(results) != 2 || results[0].Threads != 1 || results[1].Threads != 2 {
		t.Fatalf("sweep results malformed: %+v", results)
	}
}

func TestReportJSONRoundTrips(t *testing.T) {
	in := NewReport(true, []Result{
		{Name: "uncontended/MCS", Lock: "MCS", Threads: 1, Throughput: 30, NsPerOp: 33.3},
		{Name: "contended/t4/CNA", Lock: "CNA", Threads: 4, Throughput: 2.4, Fairness: 0.9, TotalOps: 1000},
	})
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("report does not round-trip: %v\n%s", err, buf.String())
	}
	if out.Schema != ReportSchema {
		t.Fatalf("schema = %q, want %q", out.Schema, ReportSchema)
	}
	if len(out.Results) != 2 || out.Results[0].Lock != "MCS" || out.Results[1].TotalOps != 1000 {
		t.Fatalf("results mangled: %+v", out.Results)
	}
	// The stable schema: field names the trajectory tooling greps for.
	for _, key := range []string{`"ops_per_us"`, `"ns_per_op"`, `"go_version"`, `"results"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("JSON missing schema key %s:\n%s", key, buf.String())
		}
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Error("JSON report must end with a newline (checked-in file hygiene)")
	}
}

func TestFormatResults(t *testing.T) {
	out := FormatResults([]Result{
		{Name: "kv/MCS", Threads: 1, Throughput: 5.3, Fairness: 0.5},
		{Name: "kv/MCS", Threads: 2, Throughput: 1.7, Fairness: 0.5},
		{Name: "kv/CNA", Threads: 2, Throughput: 2.4, Fairness: 0.55},
	})
	for _, want := range []string{"kv/MCS", "kv/CNA", "threads", "fairness", "5.300"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted results missing %q:\n%s", want, out)
		}
	}
}
