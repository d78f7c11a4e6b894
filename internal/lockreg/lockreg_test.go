package lockreg

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/numa"
)

// catalogue pins the registry in registration order: the base
// algorithms, then the derived spin-then-park variants, then the stdlib
// baselines, then the derived reader-writer, fissile and
// concurrency-restriction families. Each row is name, aliases,
// description, wait policy, RW, NUMA-aware.
var catalogue = []struct {
	name        string
	aliases     []string
	description string
	wait        string
	rw, numa    bool
}{
	{"TAS", []string{"test-and-set"}, "test-and-set spin lock: one word, global spinning, no fairness", "spin", false, false},
	{"TTAS", []string{"test-and-test-and-set"}, "test-and-test-and-set: reads before the atomic swap to cut coherence traffic", "spin", false, false},
	{"BO-TAS", []string{"backoff", "backoff-tas"}, "test-and-set with capped exponential backoff (the BO of C-BO-MCS)", "spin", false, false},
	{"TKT", []string{"ticket"}, "FIFO ticket lock: strictly fair, one word, global spinning", "spin", false, false},
	{"PTL", []string{"partitioned-ticket"}, "partitioned ticket lock: grants striped across per-socket slots", "spin", false, false},
	{"MCS", nil, "Mellor-Crummey/Scott queue lock: local spinning, the paper's baseline", "spin", false, false},
	{"CLH", nil, "Craig/Landin/Hagersten queue lock: spins on the predecessor's node", "spin", false, false},
	{"HBO", []string{"hierarchical-backoff"}, "hierarchical backoff lock: one word, remote waiters back off longer", "spin", false, true},
	{"MCSCR", []string{"malthusian"}, "Malthusian MCS: culls excess waiters to a passive list (Dice 2017)", "spin", false, false},
	{"C-BO-MCS", nil, "cohort lock: backoff-TAS global, MCS locals (best cohort variant)", "spin", false, true},
	{"C-TKT-TKT", nil, "cohort lock: ticket global, ticket locals", "spin", false, true},
	{"C-PTL-TKT", nil, "cohort lock: partitioned-ticket global, ticket locals", "spin", false, true},
	{"HMCS", nil, "hierarchical MCS: per-socket queues plus a root queue (Chabbi 2015)", "spin", false, true},
	{"CNA", nil, "compact NUMA-aware lock: one word of state (the paper's contribution)", "spin", false, true},
	{"CNA-opt", []string{"cna (opt)", "cnaopt"}, "CNA with the Section 6 shuffle-reduction optimisation", "spin", false, true},
	{"MCS-park", nil, "Mellor-Crummey/Scott queue lock: local spinning, the paper's baseline; waiters spin briefly then park", "spin-park", false, false},
	{"CLH-park", nil, "Craig/Landin/Hagersten queue lock: spins on the predecessor's node; waiters spin briefly then park", "spin-park", false, false},
	{"MCSCR-park", []string{"malthusian-park"}, "Malthusian MCS: culls excess waiters to a passive list (Dice 2017); waiters spin briefly then park", "spin-park", false, false},
	{"C-BO-MCS-park", nil, "cohort lock: backoff-TAS global, MCS locals (best cohort variant); waiters spin briefly then park", "spin-park", false, true},
	{"HMCS-park", nil, "hierarchical MCS: per-socket queues plus a root queue (Chabbi 2015); waiters spin briefly then park", "spin-park", false, true},
	{"CNA-park", nil, "compact NUMA-aware lock: one word of state (the paper's contribution); waiters spin briefly then park", "spin-park", false, true},
	{"CNA-opt-park", []string{"cna (opt)-park", "cnaopt-park"}, "CNA with the Section 6 shuffle-reduction optimisation; waiters spin briefly then park", "spin-park", false, true},
	{"std", []string{"sync-mutex", "stdlib"}, "sync.Mutex: the Go runtime's own mutex, the drop-in baseline", "runtime", false, false},
	{"std-rw", []string{"sync-rwmutex", "stdlib-rw"}, "sync.RWMutex: write-locked as a mutex, the runtime RW baseline", "runtime", true, false},
	{"MCS-rw", nil, "NUMA-aware RW lock: per-socket read indicators, MCS writer gate", "spin", true, true},
	{"CLH-rw", nil, "NUMA-aware RW lock: per-socket read indicators, CLH writer gate", "spin", true, true},
	{"C-BO-MCS-rw", nil, "NUMA-aware RW lock: per-socket read indicators, C-BO-MCS writer gate", "spin", true, true},
	{"HMCS-rw", nil, "NUMA-aware RW lock: per-socket read indicators, HMCS writer gate", "spin", true, true},
	{"CNA-rw", nil, "NUMA-aware RW lock: per-socket read indicators, CNA writer gate", "spin", true, true},
	{"CNA-opt-rw", []string{"cna (opt)-rw", "cnaopt-rw"}, "NUMA-aware RW lock: per-socket read indicators, CNA-opt writer gate", "spin", true, true},
	{"MCS-fissile", nil, "Fissile composite: one-CAS TAS fast path, MCS queue under contention", "spin", false, false},
	{"CLH-fissile", nil, "Fissile composite: one-CAS TAS fast path, CLH queue under contention", "spin", false, false},
	{"MCSCR-fissile", []string{"malthusian-fissile"}, "Fissile composite: one-CAS TAS fast path, MCSCR queue under contention", "spin", false, false},
	{"C-BO-MCS-fissile", nil, "Fissile composite: one-CAS TAS fast path, C-BO-MCS queue under contention", "spin", false, true},
	{"HMCS-fissile", nil, "Fissile composite: one-CAS TAS fast path, HMCS queue under contention", "spin", false, true},
	{"CNA-fissile", nil, "Fissile composite: one-CAS TAS fast path, CNA queue under contention", "spin", false, true},
	{"CNA-opt-fissile", []string{"cna (opt)-fissile", "cnaopt-fissile"}, "Fissile composite: one-CAS TAS fast path, CNA-opt queue under contention", "spin", false, true},
	{"std-cr", []string{"sync-mutex-cr", "stdlib-cr"}, "GCR admission gate over std: bounded active set, surplus waiters parked and rotated", "spin-park", false, false},
	{"TKT-cr", []string{"ticket-cr"}, "GCR admission gate over TKT: bounded active set, surplus waiters parked and rotated", "spin-park", false, false},
	{"MCS-cr", nil, "GCR admission gate over MCS: bounded active set, surplus waiters parked and rotated", "spin-park", false, false},
	{"CNA-cr", nil, "GCR admission gate over CNA: bounded active set, surplus waiters parked and rotated", "spin-park", false, true},
	{"CNA-opt-cr", []string{"cna (opt)-cr", "cnaopt-cr"}, "GCR admission gate over CNA-opt: bounded active set, surplus waiters parked and rotated", "spin-park", false, true},
	{"C-BO-MCS-cr", nil, "GCR admission gate over C-BO-MCS: bounded active set, surplus waiters parked and rotated", "spin-park", false, true},
	{"HMCS-cr", nil, "GCR admission gate over HMCS: bounded active set, surplus waiters parked and rotated", "spin-park", false, true},
}

// TestNamesCoverEveryAlgorithm pins every registered Spec's metadata
// against the catalogue, in order, and checks that the name and every
// alias (suffixed ones included) resolve back to the Spec.
func TestNamesCoverEveryAlgorithm(t *testing.T) {
	specs := All()
	if len(specs) != len(catalogue) {
		t.Fatalf("All() = %v (%d specs), want %d", Names(), len(specs), len(catalogue))
	}
	for i, want := range catalogue {
		s := specs[i]
		if s.Name != want.name || !slices.Equal(s.Aliases, want.aliases) || s.Description != want.description ||
			s.Wait != want.wait || s.RW != want.rw || s.NUMAAware != want.numa {
			t.Errorf("spec %d = {%q %q %q %q rw=%v numa=%v}, want %+v",
				i, s.Name, s.Aliases, s.Description, s.Wait, s.RW, s.NUMAAware, want)
		}
		for _, key := range append([]string{want.name}, want.aliases...) {
			if got, ok := Lookup(key); !ok || got.Name != want.name {
				t.Errorf("Lookup(%q) = %q, %v; want %q", key, got.Name, ok, want.name)
			}
		}
	}
}

// TestCanonicalNameMatchesMutexName is the anti-drift check: the
// registry name, the CLI spelling and the string a built lock reports
// via Name() are one and the same.
func TestCanonicalNameMatchesMutexName(t *testing.T) {
	env := Env{MaxThreads: 2, Topology: numa.TwoSocketXeonE5()}
	for _, spec := range All() {
		if got := spec.Build(env).Name(); got != spec.Name {
			t.Errorf("spec %q builds a lock whose Name() is %q", spec.Name, got)
		}
	}
}

func TestLookupIsCaseInsensitiveAndAliased(t *testing.T) {
	cases := map[string]string{
		"mcs":          NameMCS,
		"MCS":          NameMCS,
		"cna":          NameCNA,
		"CNA-OPT":      NameCNAOpt,
		"cna-opt":      NameCNAOpt,
		"CNA (opt)":    NameCNAOpt,
		"cna_opt":      NameCNAOpt,
		"cnaopt":       NameCNAOpt,
		"ticket":       NameTicket,
		"malthusian":   NameMCSCR,
		"backoff":      NameBOTAS,
		"c-bo-mcs":     NameCBOMCS,
		"C-BO-MCS":     NameCBOMCS,
		" hmcs ":       NameHMCS,
		"test-and-set": NameTAS,
	}
	for in, want := range cases {
		spec, ok := Lookup(in)
		if !ok {
			t.Errorf("Lookup(%q) failed, want %q", in, want)
			continue
		}
		if spec.Name != want {
			t.Errorf("Lookup(%q) = %q, want %q", in, spec.Name, want)
		}
	}
	if _, ok := Lookup("no-such-lock"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}

func TestResolve(t *testing.T) {
	all, err := Resolve("all")
	if err != nil || len(all) != len(catalogue) {
		t.Fatalf("Resolve(all) = %d specs, err %v; want %d", len(all), err, len(catalogue))
	}
	for i, s := range all {
		if s.Name != catalogue[i].name {
			t.Errorf("Resolve(all)[%d] = %q, want %q", i, s.Name, catalogue[i].name)
		}
	}
	specs, err := Resolve(" mcs , CNA-OPT ")
	if err != nil || len(specs) != 2 || specs[0].Name != NameMCS || specs[1].Name != NameCNAOpt {
		t.Fatalf("Resolve(mcs,CNA-OPT) = %v, err %v", specs, err)
	}
	if _, err := Resolve("mcs,bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("Resolve with unknown name: err = %v", err)
	}
}

func TestBuildUnknownNameListsKnownOnes(t *testing.T) {
	_, err := Build("spanner", Env{MaxThreads: 1})
	if err == nil {
		t.Fatal("Build accepted an unknown lock name")
	}
	for _, name := range []string{NameMCS, NameCNA, NameHMCS} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %q", err, name)
		}
	}
}

// TestOptionsReachTheAlgorithm spot-checks that functional options land
// on the built lock: shuffle reduction flips the CNA variant (visible
// through Name()), and unknown-to-the-algorithm options are ignored.
func TestOptionsReachTheAlgorithm(t *testing.T) {
	env := Env{MaxThreads: 2, Topology: numa.TwoSocketXeonE5()}
	if got := MustBuild(NameCNA, env, WithShuffleReduction(true)).Name(); got != NameCNAOpt {
		t.Errorf("CNA + WithShuffleReduction = %q, want %q", got, NameCNAOpt)
	}
	if got := MustBuild(NameCNAOpt, env, WithShuffleReduction(false)).Name(); got != NameCNA {
		t.Errorf("CNA-opt + WithShuffleReduction(false) = %q, want %q", got, NameCNA)
	}
	// Options inapplicable to an algorithm are ignored, so one option
	// list can configure a heterogeneous sweep.
	if got := MustBuild(NameMCS, env, WithThreshold(0x3ff), WithBackoff(1, 8)).Name(); got != NameMCS {
		t.Errorf("MCS with foreign options = %q", got)
	}
}

// TestSharedArena exercises the Env-carried arena: two CNA locks drawing
// nodes from one arena must still exclude correctly when used by the
// same threads (the paper's fine-grained-locking deployment).
func TestSharedArena(t *testing.T) {
	arena := core.NewArena(2)
	env := Env{MaxThreads: 2, Topology: numa.TwoSocketXeonE5(), Arena: arena}
	a := MustBuild(NameCNA, env)
	b := MustBuild(NameCNAOpt, env)
	th := locks.NewThread(0, 0)
	a.Lock(th)
	b.Lock(th)
	b.Unlock(th)
	a.Unlock(th)
}
