// Package lockreg is the single source of truth for lock construction.
//
// The paper's evaluation is a matrix of lock algorithm × workload, and
// every benchmark, example and test in this repository used to build its
// corner of that matrix by hand, each with its own lock-by-name switch,
// knob spellings and coverage. lockreg replaces those switches with one
// registry: every algorithm in the tree registers a Spec here, and every
// consumer constructs locks through Build (or the repro facade), so a new
// algorithm or a new workload becomes a one-liner instead of an edit to
// each binary.
//
// # Names
//
// Spec.Name is canonical and always equals the string the built lock's
// Name() method reports (the conformance suite enforces this). Lookup is
// case-insensitive and also accepts each Spec's Aliases, so CLI flags may
// spell "cna-opt", "CNA-OPT" or "cna (opt)" and reach the same algorithm.
//
// # Environments and options
//
// An Env carries the machine-shaped inputs every constructor may need:
// the thread-ID bound, the NUMA topology (socket count) and an optional
// shared CNA node Arena. Functional options (WithThreshold, WithBackoff,
// WithMaxLocalPasses, ...) tune the per-algorithm policy knobs; options
// an algorithm does not understand are ignored, so one option list can
// configure a whole sweep. Defaults are the paper's settings.
//
// # Composition
//
// Four wrapper layers compose over base algorithms: spin-then-park
// waiting, the cohort reader-writer construction, the Fissile one-CAS
// fast path and the GCR admission gate. The layers table holds one row
// per layer: its name suffix, the bases it wraps and how it builds over
// a base's lock. derive registers each row over each of its bases under
// the name <base><suffix> ("CNA" + "-fissile" is "CNA-fissile"), with
// the base's aliases suffixed alike ("cnaopt-cr"). Every Spec builds a
// locks.TimedMutex, so each layer receives its inner lock typed and the
// compiler checks the bounded-wait contract down the whole stack.
package lockreg

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/locknames"
	"repro/internal/locks"
	"repro/internal/locks/cohort"
	"repro/internal/locks/fissile"
	"repro/internal/locks/gcr"
	"repro/internal/locks/hmcs"
	"repro/internal/locks/rw"
	"repro/internal/numa"
	"repro/internal/waiter"
)

// Canonical algorithm names, one per base Spec (a derived Spec is
// spelled <base><suffix>). Each equals the Name() string of the lock the
// Spec builds. The strings live in the leaf package internal/locknames
// so the simulator can share them without linking the real lock
// implementations.
const (
	NameTAS     = locknames.TAS
	NameTTAS    = locknames.TTAS
	NameBOTAS   = locknames.BOTAS
	NameTicket  = locknames.Ticket
	NamePTL     = locknames.PTL
	NameMCS     = locknames.MCS
	NameCLH     = locknames.CLH
	NameHBO     = locknames.HBO
	NameMCSCR   = locknames.MCSCR
	NameCBOMCS  = locknames.CBOMCS
	NameCTKTTKT = locknames.CTKTTKT
	NameCPTLTKT = locknames.CPTLTKT
	NameHMCS    = locknames.HMCS
	NameCNA     = locknames.CNA
	NameCNAOpt  = locknames.CNAOpt
)

// Stdlib baselines: the Go runtime's own mutexes as registry citizens,
// so sweeps and conformance runs compare against sync.Mutex out of the
// box.
const (
	NameStd   = locknames.Std
	NameStdRW = locknames.StdRW
)

// Env carries the construction-time environment shared by all lock
// algorithms: how many threads will use the lock, what machine they run
// on, and (for CNA) where queue nodes live.
type Env struct {
	// MaxThreads bounds the thread IDs that will use the lock; values
	// below 1 are treated as 1.
	MaxThreads int
	// Topology is the (virtual) NUMA machine; its socket count sizes the
	// hierarchical locks. A zero Topology means the paper's primary
	// 2-socket machine.
	Topology numa.Topology
	// Arena, when non-nil, is the shared CNA queue-node storage every CNA
	// lock built from this Env draws from — the paper's "million locks,
	// one arena" deployment. When nil, each CNA lock gets a private arena.
	Arena *core.Arena
}

// Sockets returns the topology's socket count (at least 1).
func (e Env) Sockets() int {
	if e.Topology.Sockets < 1 {
		return numa.TwoSocketXeonE5().Sockets
	}
	return e.Topology.Sockets
}

// Threads returns the thread-ID bound (at least 1).
func (e Env) Threads() int {
	if e.MaxThreads < 1 {
		return 1
	}
	return e.MaxThreads
}

// arena returns the shared arena, or a private one sized for the Env.
func (e Env) arena() *core.Arena {
	if e.Arena != nil {
		return e.Arena
	}
	return core.NewArena(e.Threads())
}

// Spec describes one registered lock algorithm.
type Spec struct {
	// Name is the canonical spelling, equal to the built lock's Name().
	Name string
	// Aliases are additional spellings Lookup accepts (case-insensitive,
	// like Name itself).
	Aliases []string
	// Description is a one-line summary for CLI help text.
	Description string
	// NUMAAware reports whether the algorithm uses socket identity.
	NUMAAware bool
	// RW reports whether the built lock implements locks.RWMutex — a
	// shared read side in addition to the writer contract. RW specs are
	// picked up by the RW conformance storms, the read-ratio benchmark
	// sweeps and the kvserver read path; consumers that only need a
	// plain mutex can use an RW spec unchanged (its writer side is the
	// full TimedMutex contract).
	RW bool
	// Wait is the canonical name of the waiting policy the Spec builds
	// with ("spin" for every base algorithm; "spin-park" for the
	// registered *-park variants; "runtime" for the stdlib baselines,
	// whose waiting the Go runtime owns). Reports carry it as the
	// wait_policy field so spin-vs-park curves can be grouped without
	// parsing names.
	Wait string
	// Build constructs a lock instance for the given environment. Every
	// registered lock honours the bounded-wait contract, so the result is
	// typed as a locks.TimedMutex and layers wrap it without assertions.
	Build func(Env, ...Option) locks.TimedMutex
	// Native, when set, builds the algorithm's own goroutine-native form
	// directly — only the stdlib baselines have one (sync.Mutex needs no
	// thread slots). When nil, the goroutine-native path
	// (internal/gonative, repro.NewMutex) wraps Build's lock in the
	// thread-slot adapter instead. Kept as a Spec field so "how do I get
	// this lock as a sync.Locker" is answered by the registry, not by
	// callers special-casing names. The native contract is timed: every
	// build supports LockTimeout/LockContext (locks.ContextLock gives
	// the context form away once LockTimeout exists).
	Native func(Env, ...Option) locks.TimedNativeMutex
}

// registry holds Specs in registration order (the order All and Names
// report) plus a normalized-name index.
var registry struct {
	specs []Spec
	index map[string]int
}

// normalize maps a user spelling to an index key: lower-cased, with
// spaces, parentheses and underscores treated as interchangeable with
// dashes ("CNA (opt)" == "cna-opt" == "cna_opt").
func normalize(name string) string {
	s := strings.ToLower(strings.TrimSpace(name))
	s = strings.NewReplacer(" ", "-", "_", "-", "(", "", ")", "").Replace(s)
	for strings.Contains(s, "--") {
		s = strings.ReplaceAll(s, "--", "-")
	}
	return strings.Trim(s, "-")
}

// Register adds a Spec to the registry. It panics on duplicate or empty
// names — registration happens at init time, so a clash is a programming
// error, not a runtime condition.
//
// Register wraps the Spec's Build so that cross-cutting options are
// honoured uniformly: WithStats(true) calls EnableStats on any built
// lock implementing locks.StatsEnabler, and WithWait sets the waiting
// policy on any lock implementing waiter.Setter, so individual Build
// funcs stay oblivious to instrumentation and wait plumbing.
func Register(s Spec) {
	if s.Name == "" || s.Build == nil {
		panic("lockreg: Spec needs a Name and a Build func")
	}
	if s.Wait == "" {
		s.Wait = waiter.Default.Name()
	}
	build := s.Build
	s.Build = func(env Env, opts ...Option) locks.TimedMutex {
		m := build(env, opts...)
		c := apply(opts)
		if c.wait != nil {
			if ws, ok := m.(waiter.Setter); ok {
				ws.SetWait(c.wait)
			}
		}
		if c.stats {
			if se, ok := m.(locks.StatsEnabler); ok {
				se.EnableStats()
			}
		}
		return m
	}
	if registry.index == nil {
		registry.index = make(map[string]int)
	}
	i := len(registry.specs)
	for _, key := range append([]string{s.Name}, s.Aliases...) {
		k := normalize(key)
		if prev, dup := registry.index[k]; dup {
			if prev == i {
				continue // name and alias of the same spec normalize alike
			}
			panic(fmt.Sprintf("lockreg: name %q already registered by %q", key, registry.specs[prev].Name))
		}
		registry.index[k] = i
	}
	registry.specs = append(registry.specs, s)
}

// All returns every registered Spec in registration order (simple spin
// locks, then queue locks, then NUMA-aware locks).
func All() []Spec {
	out := make([]Spec, len(registry.specs))
	copy(out, registry.specs)
	return out
}

// Names returns the canonical names in registration order — a stable
// list for CLI help text and sweeps.
func Names() []string {
	out := make([]string, len(registry.specs))
	for i, s := range registry.specs {
		out[i] = s.Name
	}
	return out
}

// Lookup resolves a (case-insensitive) name or alias to its Spec.
func Lookup(name string) (Spec, bool) {
	i, ok := registry.index[normalize(name)]
	if !ok {
		return Spec{}, false
	}
	return registry.specs[i], true
}

// Build constructs the named lock in the given environment. The error of
// an unknown name lists every registered spelling.
func Build(name string, env Env, opts ...Option) (locks.TimedMutex, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, UnknownLockError(name)
	}
	return spec.Build(env, opts...), nil
}

// UnknownLockError is the error for an unresolvable lock name; it lists
// every registered spelling alongside the offending one. Exported so
// the goroutine-native builder (internal/gonative) reports unknown
// names identically to Build.
func UnknownLockError(name string) error {
	sorted := Names()
	sort.Strings(sorted)
	return fmt.Errorf("lockreg: unknown lock %q (known: %s)", name, strings.Join(sorted, ", "))
}

// Resolve turns a CLI-style comma-separated name list into Specs. The
// literal "all" (or an empty string) selects every registered algorithm
// in registration order; unknown names produce the same
// known-spellings error as Build.
func Resolve(list string) ([]Spec, error) {
	if k := normalize(list); k == "" || k == "all" {
		return All(), nil
	}
	var specs []Spec
	for _, name := range strings.Split(list, ",") {
		spec, ok := Lookup(name)
		if !ok {
			return nil, UnknownLockError(name)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// MustSpec resolves a (case-insensitive) name or alias to its Spec,
// panicking on unknown names — for tests and static call sites that
// need the Spec itself rather than a built lock.
func MustSpec(name string) Spec {
	spec, ok := Lookup(name)
	if !ok {
		panic(UnknownLockError(name))
	}
	return spec
}

// MustBuild is Build for callers with static names (examples, tests).
func MustBuild(name string, env Env, opts ...Option) locks.TimedMutex {
	m, err := Build(name, env, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

func init() {
	Register(Spec{
		Name:        NameTAS,
		Aliases:     []string{"test-and-set"},
		Description: "test-and-set spin lock: one word, global spinning, no fairness",
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			return locks.NewTAS()
		},
	})
	Register(Spec{
		Name:        NameTTAS,
		Aliases:     []string{"test-and-test-and-set"},
		Description: "test-and-test-and-set: reads before the atomic swap to cut coherence traffic",
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			return locks.NewTTAS()
		},
	})
	Register(Spec{
		Name:        NameBOTAS,
		Aliases:     []string{"backoff", "backoff-tas"},
		Description: "test-and-set with capped exponential backoff (the BO of C-BO-MCS)",
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			c := apply(opts)
			min, max := c.backoff(locks.DefaultBackoffMin, locks.DefaultBackoffMax)
			return locks.NewBackoffTAS(min, max)
		},
	})
	Register(Spec{
		Name:        NameTicket,
		Aliases:     []string{"ticket"},
		Description: "FIFO ticket lock: strictly fair, one word, global spinning",
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			return locks.NewTicket()
		},
	})
	Register(Spec{
		Name:        NamePTL,
		Aliases:     []string{"partitioned-ticket"},
		Description: "partitioned ticket lock: grants striped across per-socket slots",
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			c := apply(opts)
			return locks.NewPartitionedTicket(c.slotsOr(env.Sockets()))
		},
	})
	Register(Spec{
		Name:        NameMCS,
		Description: "Mellor-Crummey/Scott queue lock: local spinning, the paper's baseline",
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			return locks.NewMCS(env.Threads())
		},
	})
	Register(Spec{
		Name:        NameCLH,
		Description: "Craig/Landin/Hagersten queue lock: spins on the predecessor's node",
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			return locks.NewCLH(env.Threads())
		},
	})
	Register(Spec{
		Name:        NameHBO,
		Aliases:     []string{"hierarchical-backoff"},
		Description: "hierarchical backoff lock: one word, remote waiters back off longer",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			c := apply(opts)
			if c.hboSet {
				return locks.NewHBO(c.hboLocalMin, c.hboLocalMax, c.hboRemoteMin, c.hboRemoteMax)
			}
			return locks.DefaultHBO()
		},
	})
	Register(Spec{
		Name:        NameMCSCR,
		Aliases:     []string{"malthusian"},
		Description: "Malthusian MCS: culls excess waiters to a passive list (Dice 2017)",
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			c := apply(opts)
			m := locks.NewMalthusian(env.Threads(),
				c.minActiveOr(locks.DefaultMalthusianMinActive),
				c.thresholdOr(locks.DefaultMalthusianReviveMask))
			if c.passivationDelaySet {
				m.SetPassivationDelay(c.passivationDelay)
			}
			return m
		},
	})
	Register(Spec{
		Name:        NameCBOMCS,
		Description: "cohort lock: backoff-TAS global, MCS locals (best cohort variant)",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			c := apply(opts)
			return cohort.NewCBOMCS(env.Sockets(), env.Threads(), c.maxLocalPassesOr(cohort.DefaultMaxLocalPasses))
		},
	})
	Register(Spec{
		Name:        NameCTKTTKT,
		Description: "cohort lock: ticket global, ticket locals",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			c := apply(opts)
			return cohort.NewCTKTTKT(env.Sockets(), c.maxLocalPassesOr(cohort.DefaultMaxLocalPasses))
		},
	})
	Register(Spec{
		Name:        NameCPTLTKT,
		Description: "cohort lock: partitioned-ticket global, ticket locals",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			c := apply(opts)
			return cohort.NewCPTLTKT(env.Sockets(), c.maxLocalPassesOr(cohort.DefaultMaxLocalPasses))
		},
	})
	Register(Spec{
		Name:        NameHMCS,
		Description: "hierarchical MCS: per-socket queues plus a root queue (Chabbi 2015)",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			c := apply(opts)
			return hmcs.New(env.Sockets(), env.Threads(), uint64(c.maxLocalPassesOr(int(hmcs.DefaultThreshold))))
		},
	})
	Register(Spec{
		Name:        NameCNA,
		Description: "compact NUMA-aware lock: one word of state (the paper's contribution)",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			return core.NewWithArena(env.arena(), cnaOptions(core.DefaultOptions(), opts))
		},
	})
	Register(Spec{
		Name:        NameCNAOpt,
		Aliases:     []string{"cna (opt)", "cnaopt"},
		Description: "CNA with the Section 6 shuffle-reduction optimisation",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			return core.NewWithArena(env.arena(), cnaOptions(core.OptimizedOptions(), opts))
		},
	})

	// The park layer, then the stdlib baselines, then the other layers:
	// each group was added after the last, so sweeps keep their
	// registration-order positions. The stdlib baselines' Wait is
	// "runtime": the Go scheduler owns their waiting (they spin briefly,
	// then park on the runtime's semaphores — the policy spectrum the
	// waiter package models is built in). Their Native builders return
	// sync primitives directly, so the goroutine-native path pays no
	// adapter at all — the honest baseline for adapter-overhead
	// measurements.
	derive(layers[0])
	Register(Spec{
		Name:        NameStd,
		Aliases:     []string{"sync-mutex", "stdlib"},
		Description: "sync.Mutex: the Go runtime's own mutex, the drop-in baseline",
		Wait:        "runtime",
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			return locks.NewStd()
		},
		Native: func(env Env, opts ...Option) locks.TimedNativeMutex {
			return locks.NewStdNative()
		},
	})
	Register(Spec{
		Name:        NameStdRW,
		Aliases:     []string{"sync-rwmutex", "stdlib-rw"},
		Description: "sync.RWMutex: write-locked as a mutex, the runtime RW baseline",
		Wait:        "runtime",
		RW:          true,
		Build: func(env Env, opts ...Option) locks.TimedMutex {
			return locks.NewStdRW()
		},
		Native: func(env Env, opts ...Option) locks.TimedNativeMutex {
			return locks.NewStdRWNative()
		},
	})

	for _, l := range layers[1:] {
		derive(l)
	}
}

// buildFunc is the type of Spec.Build.
type buildFunc = func(Env, ...Option) locks.TimedMutex

// layer is one row of the composition table: a wrapper that derive
// registers over each of bases as "<base><suffix>".
type layer struct {
	suffix string
	bases  []string
	// describe gives the derived Spec's Description.
	describe func(base Spec) string
	// wait is the derived Spec's Wait; empty keeps the base's.
	wait string
	// rw marks the reader-writer layer: its Specs are RW, and NUMA-aware
	// whatever their base.
	rw bool
	// build constructs the layer over base, the base Spec's Build. The
	// caller's options reach both: the base reads its own knobs, the
	// layer its own, and Register's WithWait/WithStats handling reaches
	// the inner lock through the layer's SetWait/EnableStats forwarding.
	build func(base buildFunc, env Env, opts []Option) locks.TimedMutex
}

// layers is the composition table, in registration order.
var layers = []layer{
	{
		// Spin-then-park: the base built with waiter.SpinThenPark{}
		// injected ahead of the caller's options, so an explicit WithWait
		// still wins. Only queue locks whose release names a specific
		// successor can park their waiters (someone must post the wake);
		// the ticket-family locks have no such waker and would merely
		// rename themselves — WithWait on them degrades to
		// yield-per-recheck (see locks.Ticket).
		suffix:   locknames.ParkSuffix,
		bases:    []string{NameMCS, NameCLH, NameMCSCR, NameCBOMCS, NameHMCS, NameCNA, NameCNAOpt},
		describe: func(b Spec) string { return b.Description + "; waiters spin briefly then park" },
		wait:     waiter.SpinThenPark{}.Name(),
		build: func(base buildFunc, env Env, opts []Option) locks.TimedMutex {
			return base(env, append([]Option{WithWait(waiter.SpinThenPark{})}, opts...)...)
		},
	},
	{
		// Reader-writer: the internal/locks/rw cohort-RW construction with
		// the base as its writer gate and one read-indicator stripe per
		// socket, over the queue and NUMA-aware locks whose writer
		// arbitration is the point of the comparison. WithReaderNeutral
		// selects the admission mode.
		suffix: locknames.RWSuffix,
		bases:  []string{NameMCS, NameCLH, NameCBOMCS, NameHMCS, NameCNA, NameCNAOpt},
		describe: func(b Spec) string {
			return "NUMA-aware RW lock: per-socket read indicators, " + b.Name + " writer gate"
		},
		rw: true,
		build: func(base buildFunc, env Env, opts []Option) locks.TimedMutex {
			var ropts []rw.Option
			if c := apply(opts); c.rwNeutralSet && c.rwNeutral {
				ropts = append(ropts, rw.Neutral())
			}
			return rw.New(base(env, opts...), env.Sockets(), env.Threads(), ropts...)
		},
	},
	{
		// Fissile: the internal/locks/fissile one-CAS TAS fast path with
		// the base queue as its contended fallback, over the same queue
		// locks as park (a fissile TAS-over-TAS would just be a slower
		// TAS). WithPatience tunes the anti-starvation bound.
		suffix: locknames.FissileSuffix,
		bases:  []string{NameMCS, NameCLH, NameMCSCR, NameCBOMCS, NameHMCS, NameCNA, NameCNAOpt},
		describe: func(b Spec) string {
			return "Fissile composite: one-CAS TAS fast path, " + b.Name + " queue under contention"
		},
		build: func(base buildFunc, env Env, opts []Option) locks.TimedMutex {
			var fopts []fissile.Option
			if c := apply(opts); c.patienceSet {
				fopts = append(fopts, fissile.WithPatience(c.patience))
			}
			return fissile.New(base(env, opts...), fopts...)
		},
	},
	{
		// Concurrency restriction: the internal/locks/gcr admission gate
		// over the stdlib baseline, the global-spinning ticket lock (the
		// two that collapse hardest under oversubscription) and the
		// queue/NUMA locks the paper sweeps. The gate parks its culled
		// waiters by default, so the Spec's Wait is spin-park.
		// WithActiveSet and WithRotateEvery tune the gate.
		suffix: locknames.CRSuffix,
		bases:  []string{NameStd, NameTicket, NameMCS, NameCNA, NameCNAOpt, NameCBOMCS, NameHMCS},
		describe: func(b Spec) string {
			return "GCR admission gate over " + b.Name + ": bounded active set, surplus waiters parked and rotated"
		},
		wait: waiter.SpinThenPark{}.Name(),
		build: func(base buildFunc, env Env, opts []Option) locks.TimedMutex {
			var gopts []gcr.Option
			c := apply(opts)
			if c.activeSetSet {
				gopts = append(gopts, gcr.WithActiveSet(c.activeSet))
			}
			if c.rotateEverySet {
				gopts = append(gopts, gcr.WithRotateEvery(c.rotateEvery))
			}
			return gcr.New(base(env, opts...), env.Sockets(), gopts...)
		},
	},
}

// derive registers layer l over each of its bases.
func derive(l layer) {
	for _, name := range l.bases {
		base := MustSpec(name)
		s := Spec{
			Name:        base.Name + l.suffix,
			Description: l.describe(base),
			NUMAAware:   base.NUMAAware || l.rw,
			RW:          l.rw,
			Wait:        cmp.Or(l.wait, base.Wait),
			Build: func(env Env, opts ...Option) locks.TimedMutex {
				return l.build(base.Build, env, opts)
			},
		}
		for _, a := range base.Aliases {
			s.Aliases = append(s.Aliases, a+l.suffix)
		}
		Register(s)
	}
}
