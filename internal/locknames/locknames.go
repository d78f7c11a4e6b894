// Package locknames holds the canonical lock-algorithm names shared by
// the real-lock registry (internal/lockreg) and the virtual-time
// simulator (internal/simbench), so figure labels, CLI spellings and
// Mutex.Name() strings can never drift apart. It is a leaf package on
// purpose: the simulator reads these strings without linking the real
// lock implementations.
package locknames

// Canonical algorithm names. Each equals the Name() string of the real
// lock it denotes (enforced by the lockreg conformance suite).
const (
	TAS    = "TAS"
	TTAS   = "TTAS"
	BOTAS  = "BO-TAS"
	MCS    = "MCS"
	CLH    = "CLH"
	MCSCR  = "MCSCR"
	CBOMCS = "C-BO-MCS"
	HMCS   = "HMCS"
	CNA    = "CNA"
	CNAOpt = "CNA-opt"
)

// Stdlib baseline names: the Go runtime's own mutexes, registered so
// every sweep compares the paper's locks against what plain Go code
// ships with. They are lower-case on purpose — they are not algorithms
// from the literature but the ambient runtime baseline.
const (
	// Std is sync.Mutex.
	Std = "std"
	// StdRW is a write-locked sync.RWMutex.
	StdRW = "std-rw"
)

// Waiting-policy name suffixes appended to a lock's canonical name when
// it is built with a non-default waiter policy (see internal/waiter):
// "MCS" + ParkSuffix is the registered spin-then-park variant of MCS.
// They live here — with the algorithm names — so registry spellings and
// Mutex.Name() strings share one source.
const (
	// ParkSuffix marks the spin-then-park variants ("MCS-park").
	ParkSuffix = "-park"
	// BlockSuffix marks immediate-park builds ("MCS-block"); not
	// registered by default, reachable via the WithWait option.
	BlockSuffix = "-block"
)

// RWSuffix marks the reader-writer construction over a base lock
// ("CNA" + RWSuffix is the registered cohort-RW lock whose writer gate
// is CNA; see internal/locks/rw). It matches the stdlib baseline's
// "std-rw" spelling, so the whole RW family shares one suffix.
const RWSuffix = "-rw"

// FissileSuffix marks the Fissile composite over a base queue lock
// ("CNA" + FissileSuffix is the registered lock whose uncontended
// acquires take a TAS outer word with one CAS and whose contended
// acquires fall back to the CNA queue; see internal/locks/fissile).
const FissileSuffix = "-fissile"

// CRSuffix marks the concurrency-restriction composite over a base lock
// ("CNA" + CRSuffix is the registered lock that fronts CNA with a GCR
// admission gate: a bounded active set may reach the inner lock, surplus
// arrivals are culled onto a passive parked list and rotated back in for
// long-term fairness; see internal/locks/gcr).
const CRSuffix = "-cr"
