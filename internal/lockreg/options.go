package lockreg

import (
	"repro/internal/core"
	"repro/internal/waiter"
)

// config collects every knob any algorithm understands. Each field is
// set-or-absent so Build funcs can fall back to the paper's defaults;
// algorithms simply ignore knobs that do not apply to them.
type config struct {
	thresholdSet bool
	threshold    uint64 // CNA KeepLocalMask / MCSCR revive mask

	shuffleSet bool
	shuffle    bool // CNA shuffle reduction on/off

	countdownSet bool
	countdown    bool // CNA fairness-countdown optimisation

	backoffSet          bool
	backoffMin, backMax uint // BO-TAS window
	maxLocalPassesSet   bool
	maxLocalPassesVal   int // C-BO-MCS / HMCS local-handover budget
	minActSet           bool
	minActVal           int // MCSCR active floor

	stats bool // enable holder-side statistics collection

	wait waiter.Policy // waiting policy; nil = leave the lock's default

	rwNeutralSet bool
	rwNeutral    bool // RW mode: reader-neutral instead of writer preference

	patienceSet bool
	patience    int // fissile alpha patience (probe rounds before barring)

	activeSetSet bool
	activeSet    int // GCR admission-gate slot count ("*-cr" specs)

	rotateEverySet bool
	rotateEvery    int // GCR rotation period in departures
}

// Option tunes one policy knob; see the With* constructors.
type Option func(*config)

// apply collects opts into a config. Each option writes through a
// pointer, so the config escapes to the heap; with no options there is
// nothing to collect and nothing is allocated.
func apply(opts []Option) config {
	if len(opts) == 0 {
		return config{}
	}
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithThreshold sets the long-term-fairness mask: CNA's THRESHOLD (the
// KeepLocalMask drawn against on each handover; paper default 0xffff)
// and MCSCR's revive mask.
func WithThreshold(mask uint64) Option {
	return func(c *config) { c.thresholdSet = true; c.threshold = mask }
}

// WithShuffleReduction toggles CNA's Section 6 shuffle-reduction
// optimisation (on by default only for the CNA-opt spec).
func WithShuffleReduction(on bool) Option {
	return func(c *config) { c.shuffleSet = true; c.shuffle = on }
}

// WithFairnessCountdown toggles CNA's Section 6 countdown variant of
// keep_lock_local (store the drawn number, decrement per handover).
func WithFairnessCountdown(on bool) Option {
	return func(c *config) { c.countdownSet = true; c.countdown = on }
}

// WithBackoff sets the BO-TAS backoff window in pause units.
func WithBackoff(min, max uint) Option {
	return func(c *config) { c.backoffSet = true; c.backoffMin, c.backMax = min, max }
}

// WithMaxLocalPasses bounds consecutive same-socket handovers for
// C-BO-MCS and HMCS (the hierarchical locks' fairness knob; the
// paper configures all NUMA-aware locks "with similar fairness
// settings", default 64).
func WithMaxLocalPasses(n int) Option {
	return func(c *config) { c.maxLocalPassesSet = true; c.maxLocalPassesVal = n }
}

// WithMinActive sets MCSCR's floor on actively circulating threads.
func WithMinActive(n int) Option {
	return func(c *config) { c.minActSet = true; c.minActVal = n }
}

// WithWait selects the waiting policy (see internal/waiter) for locks
// that support one: waiter.Spin{} (the default: the paper's
// always-spinning waiters), waiter.SpinThenPark{} (bounded spin, then
// block — the production choice when threads outnumber cores) or
// waiter.Park{} (block immediately). Applied uniformly by the registry
// to any built lock implementing waiter.Setter; locks without
// configurable waiting ignore it. The policy is reflected in the lock's
// Name() ("MCS" + "-park" …), which is how the registered "*-park"
// variants keep registry names and Name() strings in sync. When a
// lock's spelling already implies a policy (the "*-park" specs), an
// explicit WithWait overrides it.
func WithWait(p waiter.Policy) Option {
	return func(c *config) { c.wait = p }
}

// WithReaderNeutral selects the RW admission mode for the "*-rw"
// specs (see internal/locks/rw): true builds reader-neutral locks
// (readers defer only to a writer that holds the gate), false the
// default writer preference (readers also defer to writers waiting at
// the gate, so reader floods cannot starve writers). Non-RW specs
// ignore the option.
func WithReaderNeutral(on bool) Option {
	return func(c *config) { c.rwNeutralSet = true; c.rwNeutral = on }
}

// WithPatience sets the Fissile composite's anti-starvation bound for
// the "*-fissile" specs (see internal/locks/fissile): how many probe
// rounds the head queue waiter tolerates fast-path barging before it
// bars the fast path and diverts new arrivals into the queue. Smaller
// is fairer, larger is faster under bursty uncontended traffic;
// default fissile.DefaultPatience. Non-fissile specs ignore the
// option.
func WithPatience(n int) Option {
	return func(c *config) { c.patienceSet = true; c.patience = n }
}

// WithActiveSet sets the GCR admission gate's slot count for the
// "*-cr" specs (see internal/locks/gcr): how many threads may hold
// membership and reach the inner lock at once; surplus arrivals are
// culled onto the passive list. Default one slot per socket plus one
// (holder + one ready waiter per socket). Non-CR specs ignore the
// option.
func WithActiveSet(n int) Option {
	return func(c *config) { c.activeSetSet = true; c.activeSet = n }
}

// WithRotateEvery sets the GCR rotation period for the "*-cr" specs:
// every n-th departure hands the departing member's slot to the oldest
// passive waiter, bounding any waiter's exile. Smaller is fairer,
// larger preserves more cache affinity in the active set; default
// gcr.DefaultRotateEvery. Non-CR specs ignore the option.
func WithRotateEvery(n int) Option {
	return func(c *config) { c.rotateEverySet = true; c.rotateEvery = n }
}

// WithStats toggles holder-side statistics collection (handover
// locality, secondary-queue traffic) for algorithms that keep them.
// Statistics default to OFF so a default-built lock's hot paths perform
// no counter writes at all; pass WithStats(true) when a benchmark or
// test reads Stats()/Handovers(). Algorithms without statistics ignore
// the option.
func WithStats(on bool) Option {
	return func(c *config) { c.stats = on }
}

func (c config) thresholdOr(def uint64) uint64 {
	if c.thresholdSet {
		return c.threshold
	}
	return def
}

func (c config) backoff(defMin, defMax uint) (uint, uint) {
	if c.backoffSet {
		return c.backoffMin, c.backMax
	}
	return defMin, defMax
}

func (c config) maxLocalPassesOr(def int) int {
	if c.maxLocalPassesSet {
		// Clamp like the C-BO-MCS constructor does; without this a negative
		// value would wrap to a huge uint64 on the HMCS path (unbounded
		// local passing, i.e. remote-socket starvation).
		if c.maxLocalPassesVal < 1 {
			return 1
		}
		return c.maxLocalPassesVal
	}
	return def
}

func (c config) minActiveOr(def int) int {
	if c.minActSet {
		return c.minActVal
	}
	return def
}

// cnaOptions overlays the set knobs onto a CNA base configuration.
func (c config) cnaOptions(base core.Options) core.Options {
	if c.thresholdSet {
		base.KeepLocalMask = c.threshold
	}
	if c.shuffleSet {
		base.ShuffleReduction = c.shuffle
	}
	if c.countdownSet {
		base.FairnessCountdown = c.countdown
	}
	return base
}
