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
// It queues the threads' own nodes (locks.Node, at the composite's
// nesting slot) and follows their Grant / AwaitNext / Thread.Expire
// protocol, so it is its tail word and its waiting policy.
type MCSLocal struct {
	tail atomic.Pointer[locks.Node]
	wait waiter.Policy
}

// NewMCSLocal returns a cohort-capable MCS local lock.
func NewMCSLocal() *MCSLocal { return &MCSLocal{wait: waiter.Default} }

// SetWait implements waiter.Setter. Call before the lock is shared.
func (l *MCSLocal) SetWait(p waiter.Policy) { l.wait = p }

// Lock implements Local.
func (l *MCSLocal) Lock(t *locks.Thread, slot int) bool {
	n := t.Node(slot)
	n.ClearNext()
	prev := l.tail.Swap(n)
	if prev == nil {
		return false
	}
	// Contended: as in locks.MCS, the spin word and park residue are
	// cleared here, before the link publishes the node.
	n.Spin.Store(nil)
	l.wait.Prepare(&n.Wait)
	prev.Next.Store(n)
	l.wait.Wait(&n.Wait, n.Ready)
	return n.Spin.Load() == gotPass
}

// LockTimeout is the timed Local acquisition (C-BO-MCS's composite
// LockTimeout uses it): the locks.Node abandonment protocol (see
// locks.TSClean). acquired=false means the deadline passed without the
// local lock: the node stays queued as a tombstone, and Thread.Expire
// has given t a fresh node for the slot and released the slot.
// globalPassed has Lock's meaning when acquired.
func (l *MCSLocal) LockTimeout(t *locks.Thread, slot int, deadline time.Time) (acquired, globalPassed bool) {
	n := t.Node(slot)
	n.ClearNext()
	// Arm before the tail swap publishes the node: a releaser must never
	// observe this (timed) node unarmed.
	n.Spin.Store(nil)
	l.wait.Prepare(&n.Wait)
	n.TState.Store(locks.TSArmed)
	if prev := l.tail.Swap(n); prev != nil {
		prev.Next.Store(n)
		if !l.wait.WaitUntil(&n.Wait, n.Ready, deadline) && !t.Expire(n) {
			return false, false
		}
	}
	n.TState.Store(locks.TSClean)
	return true, n.Spin.Load() == gotPass
}

// TryLock implements Local: one CAS on the empty local tail. Entering
// an empty local queue can never receive a cohort pass (passing
// requires a linked waiter), so globalPassed is always false on
// success.
func (l *MCSLocal) TryLock(t *locks.Thread, slot int) (acquired, globalPassed bool) {
	n := t.Node(slot)
	n.ClearNext()
	return l.tail.CompareAndSwap(nil, n), false
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
	n := t.Node(slot)
	for {
		next := n.Next.Load()
		if next == nil {
			if l.tail.CompareAndSwap(n, nil) {
				return false // queue drained: nothing delivered
			}
			next = n.AwaitNext()
		}
		if next.Grant(l.wait, v) {
			return true
		}
		n = next
	}
}

// HasWaiter implements Local.
func (l *MCSLocal) HasWaiter(t *locks.Thread, slot int) bool {
	n := t.Node(slot)
	return n.Next.Load() != nil || l.tail.Load() != n
}

// ---- Local ticket with cohort passing (the "TKT" of C-TKT-TKT) ----

// TicketLocal is a ticket lock extended with cohort passing. Like the
// top-level ticket lock, release names no particular waiter, so waiting
// runs through the policy's WaitGlobal (proportional backoff; parking
// policies degrade to yields).
type TicketLocal struct {
	state atomic.Uint64 // next<<32 | grant
	wait  waiter.Policy
	// passFlag is written by the releasing holder before it bumps grant
	// and read by the next holder after it observes its grant; the grant
	// store/load pair orders the accesses.
	passFlag atomic.Uint32
}

// NewTicketLocal returns a cohort-capable ticket local lock.
func NewTicketLocal() *TicketLocal { return &TicketLocal{wait: waiter.Default} }

// SetWait implements waiter.Setter. Call before the lock is shared.
func (l *TicketLocal) SetWait(p waiter.Policy) { l.wait = p }

// Lock implements Local.
func (l *TicketLocal) Lock(t *locks.Thread, slot int) bool {
	ticket := uint32(l.state.Add(1<<32)>>32) - 1
	if uint32(l.state.Load()) != ticket {
		l.wait.WaitGlobal(func() uint32 { return ticket - uint32(l.state.Load()) })
	}
	return l.passFlag.Load() != 0
}

// TryLock implements Local: claim a ticket only when it would be served
// immediately (a CAS over the whole state word, as in locks.Ticket).
// Unlike the empty-queue MCS case, an immediately served ticket can
// carry a cohort pass: the previous holder may have set passFlag for a
// waiter that timed out of existence — but passFlag=1 implies a waiter
// existed at release time and consumed the grant, so a free lock always
// has passFlag=0 and globalPassed is false in practice; it is read
// anyway to keep the Local contract uniform.
func (l *TicketLocal) TryLock(t *locks.Thread, slot int) (acquired, globalPassed bool) {
	v := l.state.Load()
	if uint32(v>>32) != uint32(v) {
		return false, false
	}
	if !l.state.CompareAndSwap(v, v+1<<32) {
		return false, false
	}
	return true, l.passFlag.Load() != 0
}

// Unlock implements Local. A drawn ticket is never abandoned (the
// ticket cohorts' timed acquire polls TryLock and never queues), so a
// pass always reaches the waiter HasWaiter saw: delivered is simply
// passGlobal.
func (l *TicketLocal) Unlock(t *locks.Thread, slot int, passGlobal bool) (delivered bool) {
	if passGlobal {
		l.passFlag.Store(1)
	} else {
		l.passFlag.Store(0)
	}
	l.state.Add(1)
	return passGlobal
}

// HasWaiter implements Local.
func (l *TicketLocal) HasWaiter(t *locks.Thread, slot int) bool {
	v := l.state.Load()
	return uint32(v>>32) > uint32(v)+1
}

// ---- Global adapters ----

// boGlobal adapts BackoffTAS (thread-oblivious: the releaser just clears
// the word) to the Global interface.
type boGlobal struct{ *locks.BackoffTAS }

// tktGlobal adapts Ticket (thread-oblivious: Unlock bumps grant).
type tktGlobal struct{ *locks.Ticket }

// ptlGlobal adapts PartitionedTicket.
type ptlGlobal struct{ *locks.PartitionedTicket }

// ---- The paper's three cohort variants ----

// NewCBOMCS builds C-BO-MCS: backoff test-and-set global, MCS locals.
// The paper reports it as the best-performing Cohort variant.
func NewCBOMCS(sockets, maxLocalPasses int) *Lock {
	local := make([]Local, sockets)
	for i := range local {
		local[i] = NewMCSLocal()
	}
	return New("C-BO-MCS", boGlobal{locks.DefaultBackoffTAS()}, local, maxLocalPasses)
}

// NewCTKTTKT builds C-TKT-TKT: ticket global, ticket locals.
func NewCTKTTKT(sockets, maxLocalPasses int) *Lock {
	local := make([]Local, sockets)
	for i := range local {
		local[i] = NewTicketLocal()
	}
	return New("C-TKT-TKT", tktGlobal{locks.NewTicket()}, local, maxLocalPasses)
}

// NewCPTLTKT builds C-PTL-TKT: partitioned-ticket global (one slot per
// socket), ticket locals.
func NewCPTLTKT(sockets, maxLocalPasses int) *Lock {
	local := make([]Local, sockets)
	for i := range local {
		local[i] = NewTicketLocal()
	}
	return New("C-PTL-TKT", ptlGlobal{locks.NewPartitionedTicket(sockets)}, local, maxLocalPasses)
}
