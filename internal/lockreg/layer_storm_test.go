package lockreg

// The layer storms: every registered *-fissile and *-cr spec is
// hammered with deliberately mixed acquisition paths — plain Lock (the
// fissile fast CAS or queue fallback, the GCR gate's admit or cull),
// TryLock spun until it wins (the fissile fast path only; a bypass of
// the GCR gate), and jittered LockTimeout whose deadlines regularly
// expire mid-protocol — with exact counter agreement at the end: every
// successful acquisition of any flavour incremented an unprotected
// counter exactly once. Unlike TestConformanceTimeoutStorm, whose
// TryLock sheds on failure, these workers spin TryLock in, so the
// fast path barges against a barred or gated queue on every release.

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locknames"
)

// TestFissileConformanceStorm is the mixed fast-path/queue-path
// hammer. A small patience makes the bar/reopen cycle fire constantly
// instead of only under pathological timing, and the timed workers'
// 0–6µs jittered deadlines expire at every protocol stage — while a
// fast-path holder spins the queue out, while the alpha is barred,
// while the inner queue is draining.
func TestFissileConformanceStorm(t *testing.T) {
	layerStorm(t, locknames.FissileSuffix, WithPatience(4))
}

// TestGCRConformanceStorm is the mixed-path hammer over every *-cr
// spec. Two admission slots for six workers keep the passive list
// populated; rotating every 32 departures exercises the grant path
// throughout instead of once per storm. The timed deadlines expire
// while culled, while parked mid-quantum and while a grant is in
// flight.
func TestGCRConformanceStorm(t *testing.T) {
	layerStorm(t, locknames.CRSuffix, WithActiveSet(2), WithRotateEvery(32))
}

// layerStorm runs the mixed-path storm on every registered spec whose
// name ends in suffix, built with opts, and then checks the lock is
// free to a TryLock: no stuck lock bit, no bar an expired fissile
// alpha failed to withdraw, no admission a GCR expiry left behind.
//
// Worker 0 (a Lock worker) acquires before the start barrier opens,
// and on that acquisition and every 64th one it holds the lock until a
// new positive-deadline expiry is counted or no timed worker is still
// running. A timed worker's second iteration is a 1µs LockTimeout, so
// it meets the held lock and expires; a spec with no such expiry fails.
// A zero-deadline miss is a TryLock miss and does not count.
func layerStorm(t *testing.T, suffix string, opts ...Option) {
	ran := 0
	for _, spec := range All() {
		if !strings.HasSuffix(spec.Name, suffix) {
			continue
		}
		ran++
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const workers = 6
			iters := confIters(t) / 2
			m := spec.Build(testEnv(workers), opts...)
			ths := confThreads(workers)

			var counter int64 // protected by m; non-atomic on purpose
			var acquired atomic.Int64
			var expiries atomic.Int64
			var timedLive atomic.Int32 // timed workers still running
			timedLive.Store(workers / 3)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if w%3 == 2 {
						defer timedLive.Add(-1)
					}
					th := ths[w]
					if w != 0 {
						<-start
					}
					for i := 0; i < iters; i++ {
						switch w % 3 {
						case 0:
							m.Lock(th)
						case 1:
							for !m.TryLock(th) {
								runtime.Gosched()
							}
						default: // jittered timed acquire, expiry expected
							d := time.Duration(i%7) * time.Microsecond
							if !m.LockTimeout(th, d) {
								if d > 0 {
									expiries.Add(1)
								}
								continue
							}
						}
						counter++
						acquired.Add(1)
						if w == 0 && i%64 == 0 {
							if i == 0 {
								close(start)
							}
							for seen := expiries.Load(); expiries.Load() == seen && timedLive.Load() > 0; {
								runtime.Gosched()
							}
						}
						m.Unlock(th)
					}
				}(w)
			}
			wg.Wait()
			t.Logf("%s: %d acquisitions, %d positive-deadline expiries", spec.Name, acquired.Load(), expiries.Load())
			if expiries.Load() == 0 {
				t.Errorf("%s: no positive-deadline LockTimeout expired: the storm never exercised abandonment", spec.Name)
			}
			if counter != acquired.Load() {
				t.Fatalf("%s: counter = %d, acquisitions = %d (mutual exclusion violated)",
					spec.Name, counter, acquired.Load())
			}
			if !m.TryLock(ths[0]) {
				t.Fatalf("%s: lock not free after quiescence", spec.Name)
			}
			m.Unlock(ths[0])
		})
	}
	if ran == 0 {
		t.Fatalf("no registered spec ends in %q", suffix)
	}
}
