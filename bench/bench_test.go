package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests hold the code to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestShortRunEmitsEveryMetric runs every workload of BENCHMARK.json at
// test size, untraced and traced, and checks that each run passes its
// gates and reports exactly the metrics the file names, in their units,
// with finite values.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			r, err := run(options{workload: name, seed: 1, seconds: 0.1, trace: trace, short: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !r.correct() {
				t.Errorf("%s trace=%v: gates failed: %v (failed %d of %d)", name, trace, r.Gates, r.Failed, r.Attempted)
			}
			if r.Attempted == 0 {
				t.Errorf("%s trace=%v: no requests attempted", name, trace)
			}
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, m.Name, got.Value)
				}
			}
		}
	}
}

// noLock excludes nothing: every goroutine "holds" it at once.
type noLock struct{}

func (noLock) Lock()         {}
func (noLock) Unlock()       {}
func (noLock) TryLock() bool { return true }
func (noLock) Name() string  { return "none" }

// TestUpdateSumGateCatchesBrokenExclusion drives the mirror path with a
// lock that excludes nothing: two clients updating one key must lose
// updates, and the update-sum gate must say so.
func TestUpdateSumGateCatchesBrokenExclusion(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	c := kvConfig{shards: 1, keys: 1, readFrac: 0, lock: "CNA"}
	mirror := newLadder(c, &ladder{spRequest: spMirrorRequest, spAcquire: spGonativeAcquire,
		spReadAcquire: spGonativeReadAcquire, spRelease: spGonativeRelease},
		func() shardLock { return nativeLock{m: noLock{}} })
	ws := newWorkers(1, c)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		trial(ws, c.readFrac, 0, 50*time.Millisecond, mirror.request)
		r := newReport("fault")
		checkSum(r, "mirror", c.keys, updatesOf(ws), mirror.get)
		if len(r.Gates) > 0 {
			return
		}
	}
	t.Fatal("the update-sum gate passed although the shard lock excluded nothing")
}
