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
// the thread-ID bound and the NUMA topology (socket count). Queue nodes
// are not among them: MCS, MCSCR, CNA, HMCS and C-BO-MCS's socket
// queues queue the threads' own nodes (see locks.Node), so those locks
// cost the same whatever the bound.
// Functional options (WithThreshold, WithBackoff, WithMaxLocalPasses,
// ...) tune the per-algorithm policy knobs; options an algorithm does
// not understand are ignored, so one option list can configure a whole
// sweep. Build applies them once, into one config the whole stack of
// layers reads, and not at all when there are none. Defaults are the
// paper's settings.
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
	NameTAS    = locknames.TAS
	NameTTAS   = locknames.TTAS
	NameBOTAS  = locknames.BOTAS
	NameMCS    = locknames.MCS
	NameCLH    = locknames.CLH
	NameMCSCR  = locknames.MCSCR
	NameCBOMCS = locknames.CBOMCS
	NameHMCS   = locknames.HMCS
	NameCNA    = locknames.CNA
	NameCNAOpt = locknames.CNAOpt
)

// Stdlib baselines: the Go runtime's own mutexes as registry citizens,
// so sweeps and conformance runs compare against sync.Mutex out of the
// box.
const (
	NameStd   = locknames.Std
	NameStdRW = locknames.StdRW
)

// Env carries the construction-time environment shared by all lock
// algorithms: how many threads will use the lock and what machine they
// run on.
type Env struct {
	// MaxThreads bounds the thread IDs that will use the lock; values
	// below 1 are treated as 1. Locks that keep per-thread state of their
	// own (CLH) size it by this bound.
	MaxThreads int
	// Topology is the (virtual) NUMA machine; its socket count sizes the
	// hierarchical locks. A Topology that fails Validate (the zero one
	// included) means the paper's primary 2-socket machine
	// (numa.Topology.OrDefault).
	Topology numa.Topology
}

// Sockets returns the socket count of e.Topology.OrDefault(), the
// topology gonative's slot pools place their threads on too.
func (e Env) Sockets() int { return e.Topology.OrDefault().Sockets }

// Threads returns the thread-ID bound (at least 1).
func (e Env) Threads() int {
	if e.MaxThreads < 1 {
		return 1
	}
	return e.MaxThreads
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
	// register derives it from build.
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

	// build is Build with the options already applied: Build applies
	// them once and hands the config down, through every layer, to the
	// base.
	build buildFunc
}

// registry holds Specs in registration order (the order All and Names
// report) plus a normalized-name index.
var registry struct {
	specs []Spec
	index map[string]int
}

// appendKey appends the index key of a user spelling to dst: ASCII
// lower-cased, with spaces and underscores treated as interchangeable
// with dashes and parentheses dropped ("CNA (opt)" == "cna-opt" ==
// "cna_opt"), runs of dashes collapsed and outer dashes trimmed. It
// writes into dst, so a lookup through a stack buffer allocates nothing.
func appendKey(dst []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c == '(' || c == ')':
		case c == ' ' || c == '_' || c == '-' || c == '\t' || c == '\n' || c == '\r':
			if len(dst) > 0 && dst[len(dst)-1] != '-' {
				dst = append(dst, '-')
			}
		case 'A' <= c && c <= 'Z':
			dst = append(dst, c+'a'-'A')
		default:
			dst = append(dst, c)
		}
	}
	if n := len(dst); n > 0 && dst[n-1] == '-' {
		dst = dst[:n-1]
	}
	return dst
}

// normalize returns the index key of a user spelling (see appendKey).
func normalize(name string) string { return string(appendKey(nil, name)) }

// register adds a Spec to the registry. It panics on duplicate or empty
// names — registration happens at init time, so a clash is a programming
// error, not a runtime condition.
//
// register wraps the Spec's build so that cross-cutting options are
// honoured uniformly: WithStats(true) calls EnableStats on any built
// lock implementing locks.StatsEnabler, and WithWait sets the waiting
// policy on any lock implementing waiter.Setter, so individual build
// funcs stay oblivious to instrumentation and wait plumbing. Build is
// the wrapped build behind one apply of the caller's options.
func register(s Spec) {
	if s.Name == "" || s.build == nil {
		panic("lockreg: Spec needs a Name and a build func")
	}
	if s.Wait == "" {
		s.Wait = waiter.Default.Name()
	}
	build := s.build
	s.build = func(env Env, c config) locks.TimedMutex {
		m := build(env, c)
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
	s.Build = func(env Env, opts ...Option) locks.TimedMutex {
		return s.build(env, apply(opts))
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

// All returns every registered Spec in registration order: the base
// algorithms, their -park variants, the stdlib baselines, then the
// -rw, -fissile and -cr families.
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
	var buf [32]byte
	i, ok := registry.index[string(appendKey(buf[:0], name))]
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
	register(Spec{
		Name:        NameTAS,
		Aliases:     []string{"test-and-set"},
		Description: "test-and-set spin lock: one word, global spinning, no fairness",
		build: func(env Env, c config) locks.TimedMutex {
			return locks.NewTAS()
		},
	})
	register(Spec{
		Name:        NameTTAS,
		Aliases:     []string{"test-and-test-and-set"},
		Description: "test-and-test-and-set: reads before the atomic swap to cut coherence traffic",
		build: func(env Env, c config) locks.TimedMutex {
			return locks.NewTTAS()
		},
	})
	register(Spec{
		Name:        NameBOTAS,
		Aliases:     []string{"backoff", "backoff-tas"},
		Description: "test-and-set with capped exponential backoff (the BO of C-BO-MCS)",
		build: func(env Env, c config) locks.TimedMutex {
			min, max := c.backoff(locks.DefaultBackoffMin, locks.DefaultBackoffMax)
			return locks.NewBackoffTAS(min, max)
		},
	})
	register(Spec{
		Name:        NameMCS,
		Description: "Mellor-Crummey/Scott queue lock: local spinning, the paper's baseline",
		build: func(env Env, c config) locks.TimedMutex {
			return locks.NewMCS()
		},
	})
	register(Spec{
		Name:        NameCLH,
		Description: "Craig/Landin/Hagersten queue lock: spins on the predecessor's node",
		build: func(env Env, c config) locks.TimedMutex {
			return locks.NewCLH(env.Threads())
		},
	})
	register(Spec{
		Name:        NameMCSCR,
		Aliases:     []string{"malthusian"},
		Description: "Malthusian MCS: culls excess waiters to a passive list (Dice 2017)",
		build: func(env Env, c config) locks.TimedMutex {
			return locks.NewMalthusian(c.minActiveOr(locks.DefaultMalthusianMinActive),
				c.thresholdOr(locks.DefaultMalthusianReviveMask))
		},
	})
	register(Spec{
		Name:        NameCBOMCS,
		Description: "cohort lock: backoff-TAS global, MCS locals (best cohort variant)",
		NUMAAware:   true,
		build: func(env Env, c config) locks.TimedMutex {
			return cohort.NewCBOMCS(env.Sockets(), c.maxLocalPassesOr(cohort.DefaultMaxLocalPasses))
		},
	})
	register(Spec{
		Name:        NameHMCS,
		Description: "hierarchical MCS: per-socket queues plus a root queue (Chabbi 2015)",
		NUMAAware:   true,
		build: func(env Env, c config) locks.TimedMutex {
			return hmcs.New(env.Sockets(), uint64(c.maxLocalPassesOr(int(hmcs.DefaultThreshold))))
		},
	})
	register(Spec{
		Name:        NameCNA,
		Description: "compact NUMA-aware lock: one word of state (the paper's contribution)",
		NUMAAware:   true,
		build: func(env Env, c config) locks.TimedMutex {
			return core.NewWithOptions(c.cnaOptions(core.DefaultOptions()))
		},
	})
	register(Spec{
		Name:        NameCNAOpt,
		Aliases:     []string{"cna (opt)", "cnaopt"},
		Description: "CNA with the Section 6 shuffle-reduction optimisation",
		NUMAAware:   true,
		build: func(env Env, c config) locks.TimedMutex {
			return core.NewWithOptions(c.cnaOptions(core.OptimizedOptions()))
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
	register(Spec{
		Name:        NameStd,
		Aliases:     []string{"sync-mutex", "stdlib"},
		Description: "sync.Mutex: the Go runtime's own mutex, the drop-in baseline",
		Wait:        "runtime",
		build: func(env Env, c config) locks.TimedMutex {
			return locks.NewStd()
		},
		Native: func(env Env, opts ...Option) locks.TimedNativeMutex {
			return locks.NewStdNative()
		},
	})
	register(Spec{
		Name:        NameStdRW,
		Aliases:     []string{"sync-rwmutex", "stdlib-rw"},
		Description: "sync.RWMutex: write-locked as a mutex, the runtime RW baseline",
		Wait:        "runtime",
		RW:          true,
		build: func(env Env, c config) locks.TimedMutex {
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

// buildFunc is the type of Spec.build: Spec.Build with the options
// applied.
type buildFunc = func(Env, config) locks.TimedMutex

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
	// build constructs the layer over base, the base Spec's build. The
	// caller's config reaches both: the base reads its own knobs, the
	// layer its own, and register's WithWait/WithStats handling reaches
	// the inner lock through the layer's SetWait/EnableStats forwarding.
	build func(base buildFunc, env Env, c config) locks.TimedMutex
}

// layers is the composition table, in registration order.
var layers = []layer{
	{
		// Spin-then-park: the base built with waiter.SpinThenPark{} as
		// its waiting policy unless the caller's options chose one, so an
		// explicit WithWait still wins. The bases are the queue locks,
		// whose release names the successor to wake.
		suffix:   locknames.ParkSuffix,
		bases:    []string{NameMCS, NameCLH, NameMCSCR, NameCBOMCS, NameHMCS, NameCNA, NameCNAOpt},
		describe: func(b Spec) string { return b.Description + "; waiters spin briefly then park" },
		wait:     waiter.SpinThenPark{}.Name(),
		build: func(base buildFunc, env Env, c config) locks.TimedMutex {
			if c.wait == nil {
				c.wait = waiter.SpinThenPark{}
			}
			return base(env, c)
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
		build: func(base buildFunc, env Env, c config) locks.TimedMutex {
			var ropts []rw.Option
			if c.rwNeutralSet && c.rwNeutral {
				ropts = append(ropts, rw.Neutral())
			}
			// rw.New takes its name from the gate, so the gate is built
			// without the caller's policy; register's WithWait reaches it
			// through rw.Lock.SetWait, and the suffix follows "-rw" once.
			c.wait = nil
			return rw.New(base(env, c), env.Sockets(), ropts...)
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
		build: func(base buildFunc, env Env, c config) locks.TimedMutex {
			var fopts []fissile.Option
			if c.patienceSet {
				fopts = append(fopts, fissile.WithPatience(c.patience))
			}
			return fissile.New(base(env, c), fopts...)
		},
	},
	{
		// Concurrency restriction: the internal/locks/gcr admission gate
		// over the stdlib baseline (which collapses hardest under
		// oversubscription) and the queue/NUMA locks the paper sweeps.
		// The gate parks its culled waiters by default, so the Spec's
		// Wait is spin-park. WithActiveSet and WithRotateEvery tune the
		// gate.
		suffix: locknames.CRSuffix,
		bases:  []string{NameStd, NameMCS, NameCNA, NameCNAOpt, NameCBOMCS, NameHMCS},
		describe: func(b Spec) string {
			return "GCR admission gate over " + b.Name + ": bounded active set, surplus waiters parked and rotated"
		},
		wait: waiter.SpinThenPark{}.Name(),
		build: func(base buildFunc, env Env, c config) locks.TimedMutex {
			var gopts []gcr.Option
			if c.activeSetSet {
				gopts = append(gopts, gcr.WithActiveSet(c.activeSet))
			}
			if c.rotateEverySet {
				gopts = append(gopts, gcr.WithRotateEvery(c.rotateEvery))
			}
			return gcr.New(base(env, c), env.Sockets(), gopts...)
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
			build: func(env Env, c config) locks.TimedMutex {
				return l.build(base.build, env, c)
			},
		}
		for _, a := range base.Aliases {
			s.Aliases = append(s.Aliases, a+l.suffix)
		}
		register(s)
	}
}
