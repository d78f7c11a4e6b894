package cohort

import (
	"sync/atomic"
	"time"

	"repro/internal/locks"
	"repro/internal/waiter"
)

// ---- Local MCS with cohort passing (the "MCS" of C-BO-MCS) ----

// The grant values a local waiter's node receives, as sentinel nodes
// whose fields are never accessed: both hand over the local lock, and
// they tell the new holder whether global ownership travelled with it.
var (
	noPass  = new(locks.Node) // global NOT passed: acquire it
	gotPass = new(locks.Node) // global ownership passed
)

// MCSLocal is an MCS lock extended with cohort passing: release can hand
// the successor a flag saying the global lock travels with the local one.
// It is a locks.Queue of the threads' own nodes (locks.Node, at the
// composite's nesting slot), so it is its tail word and its waiting
// policy.
type MCSLocal struct {
	q    locks.Queue
	wait waiter.Policy
}

// NewMCSLocal returns a cohort-capable MCS local lock.
func NewMCSLocal() *MCSLocal { return &MCSLocal{wait: waiter.Default} }

// SetWait implements waiter.Setter. Call before the lock is shared.
func (l *MCSLocal) SetWait(p waiter.Policy) { l.wait = p }

// Lock implements Local.
func (l *MCSLocal) Lock(t *locks.Thread, slot int) bool {
	return l.q.Lock(t.Node(slot), l.wait) == gotPass
}

// LockTimeout is the timed Local acquisition (C-BO-MCS's composite
// LockTimeout uses it): locks.Queue.LockUntil. acquired=false means the
// deadline passed without the local lock: the node stays queued as a
// tombstone, and Thread.Retire has given t a fresh node for the slot
// and released the slot. globalPassed has Lock's meaning when acquired.
func (l *MCSLocal) LockTimeout(t *locks.Thread, slot int, deadline time.Time) (acquired, globalPassed bool) {
	v, ok := l.q.LockUntil(t.Node(slot), l.wait, deadline)
	if !ok {
		t.Retire()
	}
	return ok, v == gotPass
}

// TryLock implements Local: it enters only an empty local queue, which
// can never receive a cohort pass (passing requires a linked waiter),
// so globalPassed is always false.
func (l *MCSLocal) TryLock(t *locks.Thread, slot int) (acquired, globalPassed bool) {
	return l.q.TryLock(t.Node(slot)), false
}

// Unlock implements Local. delivered reports whether the handover (and
// with it a passGlobal=true cohort pass) actually reached a waiter:
// with timed waiters in the queue, every linked waiter may have
// abandoned between HasWaiter and here, in which case the release walk
// skips their tombstones and empties the queue, no one received the
// pass, and the composite release must dispose of the global lock
// itself.
func (l *MCSLocal) Unlock(t *locks.Thread, slot int, passGlobal bool) (delivered bool) {
	v := noPass
	if passGlobal {
		v = gotPass
	}
	return l.q.Unlock(t.Node(slot), l.wait, v)
}

// HasWaiter implements Local.
func (l *MCSLocal) HasWaiter(t *locks.Thread, slot int) bool {
	return l.q.HasWaiter(t.Node(slot))
}

// ---- Local ticket with cohort passing (the "TKT" of C-TKT-TKT) ----

// TicketLocal is a locks.Ticket extended with cohort passing. Like the
// top-level ticket lock, release names no particular waiter, so waiting
// runs through the policy's WaitGlobal (proportional backoff; parking
// policies degrade to yields).
type TicketLocal struct {
	locks.Ticket
	// passFlag is written by the releasing holder before it serves the
	// next ticket and read by the next holder after it observes its
	// grant; the grant store/load pair orders the accesses.
	passFlag atomic.Bool
}

// NewTicketLocal returns a cohort-capable ticket local lock.
func NewTicketLocal() *TicketLocal {
	l := new(TicketLocal)
	l.SetWait(waiter.Default)
	return l
}

// Lock implements Local.
func (l *TicketLocal) Lock(t *locks.Thread, slot int) bool {
	l.Ticket.Lock(t)
	return l.passFlag.Load()
}

// TryLock implements Local: locks.Ticket.TryLock. passFlag=true implies
// a waiter existed at release time and consumed the grant, so a free
// lock always has passFlag=false and globalPassed is false in practice;
// it is read anyway to keep the Local contract uniform.
func (l *TicketLocal) TryLock(t *locks.Thread, slot int) (acquired, globalPassed bool) {
	if !l.Ticket.TryLock(t) {
		return false, false
	}
	return true, l.passFlag.Load()
}

// Unlock implements Local. A drawn ticket is never abandoned (the
// ticket cohorts' timed acquire polls TryLock and never queues), so a
// pass always reaches the waiter HasWaiter saw: delivered is simply
// passGlobal.
func (l *TicketLocal) Unlock(t *locks.Thread, slot int, passGlobal bool) (delivered bool) {
	l.passFlag.Store(passGlobal)
	l.Ticket.Unlock(t)
	return passGlobal
}

// HasWaiter implements Local.
func (l *TicketLocal) HasWaiter(t *locks.Thread, slot int) bool { return l.HasWaiters() }

// ---- The paper's three cohort variants ----
//
// Their globals are registry locks used as they are: each is
// thread-oblivious (BackoffTAS clears its word, Ticket and
// PartitionedTicket serve the next ticket), and the backoff TAS is
// also a TimedGlobal.

// NewCBOMCS builds C-BO-MCS: backoff test-and-set global, MCS locals.
// The paper reports it as the best-performing Cohort variant.
func NewCBOMCS(sockets, maxLocalPasses int) *Lock {
	local := make([]Local, sockets)
	for i := range local {
		local[i] = NewMCSLocal()
	}
	return New("C-BO-MCS", locks.DefaultBackoffTAS(), local, maxLocalPasses)
}

// NewCTKTTKT builds C-TKT-TKT: ticket global, ticket locals.
func NewCTKTTKT(sockets, maxLocalPasses int) *Lock {
	local := make([]Local, sockets)
	for i := range local {
		local[i] = NewTicketLocal()
	}
	return New("C-TKT-TKT", locks.NewTicket(), local, maxLocalPasses)
}

// NewCPTLTKT builds C-PTL-TKT: partitioned-ticket global (one slot per
// socket), ticket locals.
func NewCPTLTKT(sockets, maxLocalPasses int) *Lock {
	local := make([]Local, sockets)
	for i := range local {
		local[i] = NewTicketLocal()
	}
	return New("C-PTL-TKT", locks.NewPartitionedTicket(sockets), local, maxLocalPasses)
}
