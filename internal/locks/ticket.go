package locks

import (
	"sync/atomic"
	"time"

	"repro/internal/waiter"
)

// Ticket is a FIFO ticket lock: one atomic fetch-add to take a ticket,
// then wait until the grant counter reaches it. Strictly fair, one word
// of state (two 32-bit halves of a single uint64), global spinning.
//
// It is the global of the C-TKT-TKT cohort variant and, embedded in
// cohort.TicketLocal, the local lock of C-TKT-TKT and C-PTL-TKT.
//
// Waiting goes through the policy's WaitGlobal with the queue distance
// (my ticket minus the current grant) as the hint — proportional
// backoff under the default Spin policy. A ticket release names no
// particular waiter, so there is nothing to Wake: parking policies
// degrade to yield-per-recheck here rather than blocking.
type Ticket struct {
	// state packs next (high 32 bits) and grant (low 32 bits).
	state atomic.Uint64
	wait  waiter.Policy
}

// NewTicket returns an unlocked ticket lock.
func NewTicket() *Ticket { return &Ticket{wait: waiter.Default} }

// SetWait implements waiter.Setter. Call before the lock is shared.
func (l *Ticket) SetWait(p waiter.Policy) { l.wait = p }

// Lock takes a ticket and waits for it to be served.
func (l *Ticket) Lock(t *Thread) {
	ticket := uint32(l.state.Add(1<<32) >> 32) // post-increment: our ticket is next-1
	ticket--
	if uint32(l.state.Load()) == ticket {
		return // uncontended: served immediately, skip the policy
	}
	l.wait.WaitGlobal(func() uint32 { return ticket - uint32(l.state.Load()) })
}

// TryLock implements Mutex: take a ticket only when it would be served
// immediately. The CAS covers the whole state word, so a concurrent
// arrival (which would make our ticket wait) forces a clean failure
// instead of a queued ticket — TryLock never waits in line.
func (l *Ticket) TryLock(t *Thread) bool {
	v := l.state.Load()
	if uint32(v>>32) != uint32(v) {
		return false // someone holds (or waits for) the lock
	}
	return l.state.CompareAndSwap(v, v+1<<32)
}

// LockTimeout implements TimedMutex. A drawn ticket cannot be returned
// — the grant counter serves tickets strictly in order, so an
// abandoned ticket would wedge every later one. The timed acquire is
// therefore a deadline-bounded TryLock poll: it never joins the FIFO
// queue, trading the blocking Lock's strict fairness for a clean
// give-up.
func (l *Ticket) LockTimeout(t *Thread, d time.Duration) bool {
	return PollTimeout(func() bool { return l.TryLock(t) }, d)
}

// Unlock serves the next ticket. Ticket locks are thread-oblivious: any
// thread may call Unlock on behalf of the holder, a property the cohort
// framework requires of its global lock.
func (l *Ticket) Unlock(t *Thread) {
	l.state.Add(1)
}

// Name implements Mutex.
func (l *Ticket) Name() string { return "TKT" + l.wait.Suffix() }

// HasWaiters reports whether another thread holds a ticket behind the
// current holder. Only meaningful when called by the lock holder; this is
// the "cohort detection" property the cohort framework requires of its
// local lock.
func (l *Ticket) HasWaiters() bool {
	v := l.state.Load()
	next, grant := uint32(v>>32), uint32(v)
	return next > grant+1
}

// PartitionedTicket is the "PTL" global lock of C-PTL-TKT (Dice et al.):
// a ticket lock whose grant is striped across several slots so that
// waiting threads spin on different cache lines instead of a single
// global grant word. One acquisition still costs a single fetch-add.
type PartitionedTicket struct {
	next  atomic.Uint64
	slots []paddedGrant
	wait  waiter.Policy
	// held records the current holder's ticket; written and read only by
	// the holder (between Lock and Unlock), so it needs no atomics, and
	// Unlock stays thread-oblivious (any thread releasing on the holder's
	// behalf reads the same field the holder wrote).
	held uint64
}

type paddedGrant struct {
	grant atomic.Uint64
	_     [7]uint64 // pad to a cache line so slots do not false-share
}

// NewPartitionedTicket returns an unlocked partitioned ticket lock with
// the given number of grant slots (rounded up to at least 1).
func NewPartitionedTicket(slots int) *PartitionedTicket {
	if slots < 1 {
		slots = 1
	}
	l := &PartitionedTicket{slots: make([]paddedGrant, slots), wait: waiter.Default}
	// Slot i serves tickets congruent to i mod slots; initialize it one
	// full stride BEHIND its first ticket (i - slots, in wrapping
	// arithmetic), so ticket i waits at distance 1 until ticket i-1's
	// release announces grant i. Initializing slot i to i — the obvious
	// choice — pre-grants every ticket in [1, slots), letting the first
	// few acquirers of a fresh lock run concurrently (a startup-window
	// mutual-exclusion bug pinned by TestPTLTicketOneBlocksAtInit).
	// Slot 0 holds 0: ticket 0 finds a free lock.
	for i := 1; i < len(l.slots); i++ {
		l.slots[i].grant.Store(uint64(i) - uint64(slots))
	}
	return l
}

// SetWait implements waiter.Setter. Call before the lock is shared.
func (l *PartitionedTicket) SetWait(p waiter.Policy) { l.wait = p }

// Lock takes a ticket and waits on the slot that will announce it.
func (l *PartitionedTicket) Lock(t *Thread) {
	ticket := l.next.Add(1) - 1
	slot := &l.slots[ticket%uint64(len(l.slots))]
	if slot.grant.Load() == ticket {
		l.held = ticket
		return
	}
	// The slot's grant only ever holds tickets congruent to ours modulo
	// the slot count, so the queue distance is the raw difference over
	// the stride.
	stride := uint64(len(l.slots))
	l.wait.WaitGlobal(func() uint32 { return uint32((ticket - slot.grant.Load()) / stride) })
	l.held = ticket
}

// TryLock implements Mutex: claim the next ticket only if its slot
// already announces it. If the grant check passes but the CAS on next
// fails, another thread raced us to the ticket and TryLock reports
// failure without having taken (or waited on) any ticket.
func (l *PartitionedTicket) TryLock(t *Thread) bool {
	ticket := l.next.Load()
	if l.slots[ticket%uint64(len(l.slots))].grant.Load() != ticket {
		return false
	}
	if !l.next.CompareAndSwap(ticket, ticket+1) {
		return false
	}
	l.held = ticket
	return true
}

// LockTimeout implements TimedMutex: a deadline-bounded TryLock poll,
// for the same cannot-return-a-ticket reason as Ticket.LockTimeout.
func (l *PartitionedTicket) LockTimeout(t *Thread, d time.Duration) bool {
	return PollTimeout(func() bool { return l.TryLock(t) }, d)
}

// Unlock announces the next ticket in its slot.
func (l *PartitionedTicket) Unlock(t *Thread) {
	next := l.held + 1
	l.slots[next%uint64(len(l.slots))].grant.Store(next)
}

// Name implements Mutex.
func (l *PartitionedTicket) Name() string { return "PTL" + l.wait.Suffix() }
