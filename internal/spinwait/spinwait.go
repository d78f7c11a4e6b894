// Package spinwait provides polite busy-waiting primitives.
//
// The CNA paper's pseudo-code calls CPU_PAUSE() in every spin loop — on
// x86 that is the PAUSE instruction, a hint that the core is spinning.
// Go offers no portable PAUSE, and more importantly this reproduction must
// remain live on GOMAXPROCS=1: a waiter that never yields would deadlock
// against the very goroutine that will release the lock.
//
// Spinner is therefore a three-phase adaptive waiter:
//
//  1. a short burst of busy work per call, betting the awaited store is
//     nanoseconds away (a short-held lock handed over without a scheduler
//     round trip);
//  2. exponentially lengthening bursts, amortising the per-call overhead
//     while the wait is still plausibly short;
//  3. a scheduler yield on every call, which is what a well-mannered
//     user-space lock wants on an oversubscribed machine (the paper runs
//     up to 70 threads on 72 CPUs for the same reason) and what keeps a
//     single-core host live: phases 1 and 2 are bounded, so every waiter
//     reaches the yielding phase after a fixed amount of busy work.
//
// Earlier revisions burned a modulo and an opaque function call on every
// spin iteration; the phase schedule needs only a counter compare and a
// shift, so the common spin iteration is branch-predictable straight-line
// code.
package spinwait

import "runtime"

// The phase schedule. Phase 1 is tightSpins calls of tightBurst work
// units each; phase 2 is burstSpins calls whose bursts double from
// 2*tightBurst up to tightBurst<<burstSpins; phase 3 yields on every
// call. The totals are small (4·8 + 16+32+64+128 = 272 units of busy
// work, well under a microsecond) so a waiter on a one-core host starts
// yielding almost immediately, while a waiter on an idle multi-core host
// picks up a short-held lock without a scheduler round trip.
const (
	tightSpins = 4 // phase-1 calls, one tight burst each
	tightBurst = 8 // busy-work units per phase-1 call
	burstSpins = 4 // phase-2 calls, exponentially lengthening
)

// Spinner is a per-waiter adaptive spin state. The zero value is ready to
// use and starts in the cheap phase.
type Spinner struct {
	calls uint32
	sink  uint32 // defeats dead-code elimination of the busy work
}

// Pause performs one polite busy-wait step following the three-phase
// schedule. It is the CPU_PAUSE of the paper's pseudo-code.
func (s *Spinner) Pause() {
	c := s.calls
	s.calls = c + 1
	if c < tightSpins+burstSpins {
		// Phases 1 and 2: burstFor is a compare-free shift, so the hot
		// spin iteration carries no modulo and a single predictable branch.
		s.sink += procyield(burstFor(c))
		return
	}
	runtime.Gosched()
}

// Yielding reports whether the spinner has reached the yield-every-call
// phase (it has burned through its busy-wait budget).
func (s *Spinner) Yielding() bool { return s.calls >= tightSpins+burstSpins }

// Reset clears the spin state, typically called after the awaited
// condition fires so the next wait starts in the cheap phase again.
func (s *Spinner) Reset() { s.calls = 0 }

// burstFor maps a phase-1/2 call number to its busy-work burst length:
// tightBurst for the first tightSpins calls, then doubling. The max
// compiles to a conditional move, not a branch.
func burstFor(c uint32) uint32 {
	return tightBurst << max(int32(c)-tightSpins+1, 0)
}

// procyield burns approximately n units of register-only work without
// touching shared memory — the portable stand-in for n PAUSE
// instructions. Callers accumulate the result into a per-waiter sink so
// the loop cannot be eliminated; no shared sink is involved, so
// concurrent spinners stay race-free.
func procyield(n uint32) uint32 {
	x := uint32(2463534242)
	for ; n > 0; n-- {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
	}
	return x
}

// Backoff implements capped exponential backoff, used by the backoff
// test-and-set lock (BO-TAS, C-BO-MCS's global). Waiting is delegated
// to an embedded adaptive Spinner, so short backoffs burn cheap busy
// work instead of forcing a scheduler round trip per unit, while long
// backoffs (and one-core hosts) still yield on every unit once the
// spinner's busy budget is spent. The zero value is invalid; use
// NewBackoff.
//
// The per-Wait duration is capped at max, and the TOTAL work since the
// last Reset is capped as well: once a waiter has burned through
// totalSpinCap units, every subsequent Wait collapses to a single pause
// (a scheduler yield by then). Without the second cap an oversubscribed
// host pays up to max consecutive Gosched calls per Wait — on a
// GOMAXPROCS=1 box that is hundreds of scheduler round trips between
// two looks at the lock word, starving the very goroutine that will
// release it.
type Backoff struct {
	cur, min, max uint
	spent         uint64 // units consumed since the last Reset
	rngState      uint64
	s             Spinner
}

// totalSpinCap bounds the cumulative pre-yield spin budget of one
// acquisition attempt (see the Backoff doc comment). 4096 units is a
// few microseconds of busy work — far past the point where backing off
// harder helps, and small enough that a one-core host reaches the
// yield-once-per-Wait regime almost immediately.
const totalSpinCap = 4096

// NewBackoff returns a Backoff that waits between min and max pause units,
// doubling on every Wait. seed randomises the jitter.
func NewBackoff(min, max uint, seed uint64) *Backoff {
	if min == 0 {
		min = 1
	}
	if max < min {
		max = min
	}
	return &Backoff{cur: min, min: min, max: max, rngState: seed | 1}
}

// Wait blocks for the current backoff duration (with jitter) and doubles
// the duration, capped at max. Once the total budget since Reset is
// spent, Wait degrades to a single pause — one scheduler yield per call
// on a saturated host — instead of up to max of them.
func (b *Backoff) Wait() {
	if b.spent >= totalSpinCap {
		b.s.Pause()
		return
	}
	// xorshift64 jitter: wait a uniform number of units in [1, cur].
	b.rngState ^= b.rngState << 13
	b.rngState ^= b.rngState >> 7
	b.rngState ^= b.rngState << 17
	units := 1 + b.rngState%uint64(b.cur)
	b.spent += units
	for i := uint64(0); i < units; i++ {
		b.s.Pause()
	}
	if b.cur < b.max {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
}

// Reset returns the backoff to its minimum duration and the embedded
// spinner to its cheap phase, typically called after a successful
// acquisition.
func (b *Backoff) Reset() {
	b.cur = b.min
	b.spent = 0
	b.s.Reset()
}

// Cur reports the current backoff bound in pause units (for tests).
func (b *Backoff) Cur() uint { return b.cur }
