package core

import (
	"testing"

	"repro/internal/locks"
)

// Deterministic white-box coverage for the statistics behind the paper's
// Section 6 policy discussion: Flushes and QueueAlterations must move
// exactly as keep_lock_local dictates, with the fairness draw forced
// both ways, and identically whether the draw is implemented by the
// per-handover PRNG or by the countdown optimisation (the optimisation
// changes only how the number is drawn, never the handover bookkeeping).

// policyQueue builds the canonical scenario: holder on socket 0 entered
// an empty queue, then a remote (socket 1) and a local (socket 0) waiter
// enqueue behind it.
func policyQueue(l *Lock) (n0, n1, n2 *locks.Node) {
	n0, n1, n2 = &locks.Node{}, &locks.Node{}, &locks.Node{}
	enqueue(l, n0, 0)
	enqueue(l, n1, 1)
	enqueue(l, n2, 0)
	return
}

func TestKeepLocalForcedStatsBothWays(t *testing.T) {
	for name, opts := range map[string]Options{
		"prng":      DefaultOptions(),
		"countdown": {KeepLocalMask: 0xffff, FairnessCountdown: true},
	} {
		opts := opts
		t.Run(name, func(t *testing.T) {
			// forceKeepLocal = +1: the holder must scan, move the remote
			// waiter to the secondary queue (one alteration, one move) and
			// flush it back when the main queue drains (one flush).
			l := NewWithOptions(opts)
			l.EnableStats()
			l.forceKeepLocal = 1
			th0 := locks.NewThread(0, 0)
			n0, n1, n2 := policyQueue(l)

			l.unlockNode(n0, th0)
			st := l.Stats()
			if st.QueueAlterations != 1 || st.SecondaryMoves != 1 {
				t.Fatalf("after local handover: alterations=%d moves=%d, want 1/1",
					st.QueueAlterations, st.SecondaryMoves)
			}
			if st.Flushes != 0 {
				t.Fatalf("local handover flushed %d times, want 0", st.Flushes)
			}
			if n2.Spin.Load() != n1 {
				t.Fatal("local successor did not inherit the secondary head")
			}

			// Draining the main queue must flush the secondary queue back
			// exactly once.
			th2 := locks.NewThread(2, 0)
			l.unlockNode(n2, th2)
			if st.Flushes != 1 {
				t.Fatalf("drain flushed %d times, want 1", st.Flushes)
			}
			if n1.Spin.Load() != granted {
				t.Fatal("secondary head not granted the lock on drain")
			}
			th1 := locks.NewThread(1, 1)
			l.unlockNode(n1, th1)

			// forceKeepLocal = -1: handovers are strict FIFO — the scan
			// never runs, no secondary queue ever forms, every counter
			// stays put.
			l2 := NewWithOptions(opts)
			l2.EnableStats()
			l2.forceKeepLocal = -1
			m0, m1, m2 := policyQueue(l2)
			l2.unlockNode(m0, th0)
			if m1.Spin.Load() != granted {
				t.Fatal("FIFO handover skipped the immediate successor")
			}
			l2.unlockNode(m1, th1)
			if m2.Spin.Load() != granted {
				t.Fatal("FIFO handover skipped the second waiter")
			}
			l2.unlockNode(m2, th2)
			st2 := l2.Stats()
			if st2.QueueAlterations != 0 || st2.SecondaryMoves != 0 || st2.Flushes != 0 {
				t.Fatalf("never-keep-local run altered queues: %+v", st2)
			}
		})
	}
}

// TestShuffleReductionStats: with the secondary queue empty, shuffle
// reduction must skip the successor scan (no queue alteration) with
// probability ShuffleMask/(ShuffleMask+1); with the mask at zero the
// scan always runs, reproducing plain CNA's counters on the same
// scenario.
func TestShuffleReductionStats(t *testing.T) {
	th0 := locks.NewThread(0, 0)

	// Mask all-ones: the draw essentially always says "skip the scan";
	// the remote immediate successor gets the lock MCS-style.
	opts := OptimizedOptions()
	opts.ShuffleMask = ^uint64(0)
	skip := NewWithOptions(opts)
	skip.EnableStats()
	skip.forceKeepLocal = 1
	n0, n1, _ := policyQueue(skip)
	skip.unlockNode(n0, th0)
	st := skip.Stats()
	if st.QueueAlterations != 0 || st.SecondaryMoves != 0 {
		t.Fatalf("shuffle-skip run altered the queue: %+v", st)
	}
	if n1.Spin.Load() != granted {
		t.Fatal("shuffle-skip did not hand over to the immediate successor")
	}

	// Mask zero: the draw always says "scan"; the counters match plain
	// CNA on the identical scenario.
	opts.ShuffleMask = 0
	scan := NewWithOptions(opts)
	scan.EnableStats()
	scan.forceKeepLocal = 1
	m0, m1, m2 := policyQueue(scan)
	scan.unlockNode(m0, th0)
	st2 := scan.Stats()
	if st2.QueueAlterations != 1 || st2.SecondaryMoves != 1 {
		t.Fatalf("shuffle-scan run: alterations=%d moves=%d, want 1/1",
			st2.QueueAlterations, st2.SecondaryMoves)
	}
	if m2.Spin.Load() != m1 {
		t.Fatal("shuffle-scan did not pass the secondary head to the local successor")
	}
}
