package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gonative"
	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/locks/fissile"
	"repro/internal/minikv"
	"repro/internal/numa"
	"repro/internal/prng"
)

// Span names. Request spans are roots; every other span is a child of
// its rung's request span and carries the same request id.
const (
	spKVRequest = iota
	spMirrorRequest
	spGonativeAcquire
	spGonativeReadAcquire
	spGonativeRelease
	spRawRequest
	spLockAcquire
	spLockReadAcquire
	spLockRelease
	spMinikvOp
	numSpans
)

var spanNames = [numSpans]string{
	"kvserver.request", "mirror.request",
	"gonative.acquire", "gonative.read_acquire", "gonative.release",
	"raw.request", "lock.acquire", "lock.read_acquire", "lock.release",
	"minikv.op",
}

// spansPerRequest is the most spans one request records (a ladder
// request: root, acquire, store operation, release).
const spansPerRequest = 4

type span struct {
	req        uint32
	name       uint8
	parent     int8  // span name of the parent, -1 for a root
	start, end int64 // ns since the run's epoch
}

// tracer is one worker's trace state for the current rung: a buffer
// preallocated for the rung's first requests (later requests feed only
// the histograms) and one duration histogram per span name.
type tracer struct {
	epoch time.Time
	req   uint32
	root  int8
	keep  bool
	buf   []span
	layer [numSpans]hist
}

func newTracer(epoch time.Time, requests int) *tracer {
	return &tracer{epoch: epoch, buf: make([]span, 0, requests*spansPerRequest)}
}

// begin starts a request; its spans are kept only if all of them fit.
func (t *tracer) begin() {
	t.req++
	t.root = -1
	t.keep = cap(t.buf)-len(t.buf) >= spansPerRequest
}

// span records one span; the first span of a request is its root.
func (t *tracer) span(name int, start, end time.Time) {
	t.layer[name].record(int64(end.Sub(start)))
	if t.keep {
		t.buf = append(t.buf, span{
			req: t.req, name: uint8(name), parent: t.root,
			start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
		})
	}
	if t.root < 0 {
		t.root = int8(name)
	}
}

// spanSet is one worker's kept spans from one rung.
type spanSet struct {
	rung   string
	worker int
	spans  []span
}

// writeSpans writes the kept spans, one line each; names maps span
// name indices to strings.
func writeSpans(path string, sets []spanSet, names []string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "# rung worker request span parent start_ns end_ns")
	for _, s := range sets {
		for _, sp := range s.spans {
			parent := "-"
			if sp.parent >= 0 {
				parent = names[sp.parent]
			}
			fmt.Fprintf(bw, "%s %d %d %s %s %d %d\n", s.rung, s.worker, sp.req, names[sp.name], parent, sp.start, sp.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// shardLock is a ladder shard's lock as the request path sees it;
// acquire reports whether it took the read side.
type shardLock interface {
	acquire(w *worker, read bool) (viaRead bool)
	release(w *worker, viaRead bool)
}

func (l nativeLock) acquire(_ *worker, read bool) bool {
	if read && l.rw != nil {
		l.rw.RLock()
		return true
	}
	l.m.Lock()
	return false
}

func (l nativeLock) release(_ *worker, viaRead bool) {
	if viaRead {
		l.rw.RUnlock()
	} else {
		l.m.Unlock()
	}
}

// rawLock is a registry lock driven with the worker's explicit Thread.
type rawLock struct {
	l  locks.Mutex
	rw locks.RWMutex // nil unless the spec has a read side
}

func (l rawLock) acquire(w *worker, read bool) bool {
	if read && l.rw != nil {
		l.rw.RLock(w.th)
		return true
	}
	l.l.Lock(w.th)
	return false
}

func (l rawLock) release(w *worker, viaRead bool) {
	if viaRead {
		l.rw.RUnlock(w.th)
	} else {
		l.l.Unlock(w.th)
	}
}

type ladderShard struct {
	lock  shardLock
	store *minikv.SkipList
}

// ladder is a rung of the layer ladder rebuilt from public pieces:
// kvserver's shard layout (shard count, skiplist seeds, multiplicative
// hash routing, prefill) with the rung's own locks, so that subtracting
// rungs isolates one layer.
type ladder struct {
	shards []ladderShard
	// Span names of the request, of an Update's and a Get's acquisition
	// (a Get takes the read side where the lock has one), and of the
	// release.
	spRequest, spAcquire, spReadAcquire, spRelease int
}

func newLadder(c kvConfig, l *ladder, mk func() shardLock) *ladder {
	l.shards = make([]ladderShard, c.shards)
	for i := range l.shards {
		l.shards[i] = ladderShard{lock: mk(), store: minikv.NewSkipList(uint64(i)*0x9e3779b97f4a7c15 + 0x5e17)}
	}
	for k := uint64(0); k < c.keys; k++ {
		l.shardFor(k).store.Put(k, prefill(k))
	}
	return l
}

// newMirror rebuilds kvserver's shards from one gonative.Pool of equal
// capacity and locks built as kvserver builds them.
func newMirror(c kvConfig) (*ladder, *gonative.Pool) {
	spec := lockreg.MustSpec(c.lock)
	pool := gonative.NewPool(poolCapacity, numa.Topology{})
	l := newLadder(c, &ladder{spRequest: spMirrorRequest, spAcquire: spGonativeAcquire, spReadAcquire: spGonativeReadAcquire, spRelease: spGonativeRelease},
		func() shardLock { return buildNative(spec, nativeEnv(), pool) })
	return l, pool
}

// newRaw builds the same shards over the registry's locks with stats on,
// returned so their counters can be read after quiescence.
func newRaw(c kvConfig) (*ladder, []locks.Mutex) {
	var built []locks.Mutex
	l := newLadder(c, &ladder{spRequest: spRawRequest, spAcquire: spLockAcquire, spReadAcquire: spLockReadAcquire, spRelease: spLockRelease}, func() shardLock {
		m := lockreg.MustBuild(c.lock, nativeEnv(), lockreg.WithStats(true))
		built = append(built, m)
		rl := rawLock{l: m}
		rl.rw, _ = m.(locks.RWMutex)
		return rl
	})
	return l, built
}

func (l *ladder) shardFor(key uint64) *ladderShard {
	return &l.shards[key*0x9e3779b97f4a7c15%uint64(len(l.shards))]
}

func (l *ladder) get(key uint64) (uint64, bool) { return l.shardFor(key).store.Get(key) }

// request serves one request the way kvserver.Get/Update do: Gets
// under the read side where there is one, Updates as get-then-put under
// the exclusive side.
func (l *ladder) request(w *worker, key uint64, read, measured bool) {
	sh := l.shardFor(key)
	t0 := time.Now()
	viaRead := sh.lock.acquire(w, read)
	t1 := time.Now()
	v, ok := sh.store.Get(key)
	if read && !ok {
		w.misses++
	}
	if !read {
		sh.store.Put(key, v+1)
	}
	t2 := time.Now()
	sh.lock.release(w, viaRead)
	if !measured {
		return
	}
	t3 := time.Now()
	w.lat[classOf(read)].record(int64(t3.Sub(t0)))
	if w.tr == nil {
		return
	}
	acq := l.spAcquire
	if read {
		acq = l.spReadAcquire
	}
	w.tr.begin()
	w.tr.span(l.spRequest, t0, t3)
	w.tr.span(acq, t0, t1)
	w.tr.span(spMinikvOp, t1, t2)
	w.tr.span(l.spRelease, t2, t3)
}

// storePass times the store alone: one goroutine replays a fresh
// request stream against the ladder's skiplists with no lock taken.
func storePass(seed uint64, c kvConfig, l *ladder, n int) (lat [2]hist, updates uint64) {
	s := prng.NewSplitMix64(seed ^ 0x73746f7265)
	keys := prng.NewZipf(s.Next(), c.theta, c.keys)
	coin := prng.New(s.Next())
	for i := 0; i < n; i++ {
		key := keys.ScrambledNext()
		read := coin.Float64() < c.readFrac
		st := l.shardFor(key).store
		t0 := time.Now()
		if read {
			st.Get(key)
		} else {
			v, _ := st.Get(key)
			st.Put(key, v+1)
			updates++
		}
		lat[classOf(read)].record(int64(time.Since(t0)))
	}
	return lat, updates
}

// lockCounters reads the raw rung's fissile and CNA counters after
// quiescence. acquisitions is the number of lock acquisitions the rung
// made.
func lockCounters(r *report, built []locks.Mutex, acquisitions uint64) {
	var fast, slow, handbacks, local, remote, moves, flushes uint64
	for _, m := range built {
		var inner locks.Mutex = m
		if f, ok := m.(*fissile.Lock); ok {
			s := f.Stats()
			fast += s.FastAcquires
			slow += s.SlowAcquires
			handbacks += s.Handbacks
			inner = f.Inner()
		}
		if c, ok := inner.(*core.Lock); ok {
			s := c.Stats()
			l, rm := s.Handover.Counts()
			local += l
			remote += rm
			moves += s.SecondaryMoves
			flushes += s.Flushes
		}
	}
	r.set("fissile.fast_frac", ratio(fast, fast+slow), "frac", fast+slow)
	r.set("fissile.handbacks_per_mop", 1e6*ratio(handbacks, fast+slow), "1/Mop", fast+slow)
	r.set("cna.remote_handover_frac", ratio(remote, local+remote), "frac", local+remote)
	r.set("cna.secondary_moves_per_kop", 1e3*ratio(moves, acquisitions), "1/kop", acquisitions)
	r.set("cna.flushes_per_kop", 1e3*ratio(flushes, acquisitions), "1/kop", acquisitions)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never crossed).
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// holdNs is the mean lock cost per request on a rung: acquire (Get or
// Update) plus release.
func holdNs(h *[numSpans]hist, acq, racq, rel, req int) float64 {
	if h[req].n == 0 {
		return 0
	}
	return (h[acq].sum + h[racq].sum + h[rel].sum) / float64(h[req].n)
}

// clockNs is the cost of one time.Now call: the median over five timed
// loops.
func clockNs() float64 {
	const n = 1 << 16
	var runs []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		last := start
		for j := 0; j < n; j++ {
			last = time.Now()
		}
		runs = append(runs, float64(last.Sub(start))/n)
	}
	_, med, _ := quartiles(runs)
	return med
}

func requestsOf(ws []*worker) uint64 {
	var n uint64
	for _, w := range ws {
		n += w.requests
	}
	return n
}

// rung is one request path of the traced run and what it accumulates
// over its trials.
type rung struct {
	name     string
	req      request
	trs      []*tracer // one per worker; nil runs untraced
	ops      []float64 // requests per second, by trial
	requests uint64
	updates  uint64
	mallocs  uint64
}

func (g *rung) run(ws []*worker, readFrac float64, warm, dur time.Duration) {
	for i, w := range ws {
		w.tr = nil
		if g.trs != nil {
			w.tr = g.trs[i]
		}
		w.updates = 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g.ops = append(g.ops, trial(ws, readFrac, warm, dur, g.req))
	runtime.ReadMemStats(&m1)
	g.mallocs += m1.Mallocs - m0.Mallocs
	g.requests += requestsOf(ws)
	g.updates += updatesOf(ws)
}

// layers merges the rung's span histograms over its workers and keeps
// their span buffers.
func (g *rung) layers(sets *[]spanSet) *[numSpans]hist {
	var h [numSpans]hist
	for i, t := range g.trs {
		for j := range h {
			h[j].merge(&t.layer[j])
		}
		*sets = append(*sets, spanSet{g.name, i, t.buf})
	}
	return &h
}

func (g *rung) medianOps() float64 {
	_, med, _ := quartiles(g.ops)
	return med
}

// tracedTrials is how many times the traced run cycles through its
// rungs. The rungs' servers are all built before the first trial, so
// each owns fresh memory, and their trials interleave round-robin so
// drift hits every rung alike.
const tracedTrials = 4

// runKVTrace is the traced run. Its rungs are kvserver untraced (the
// reference for the tracing overhead), kvserver traced, the mirror and
// the raw locks; a lock-free pass over the store follows. Each rung is
// checked by the same gates as the end-to-end run.
func runKVTrace(o options, c kvConfig) *report {
	r := newReport(o.workload)
	keepReqs, passOps := 8192, 1<<17
	if o.short {
		keepReqs, passOps = 256, 1<<10
	}
	epoch := time.Now()
	tracers := func() []*tracer {
		trs := make([]*tracer, workers)
		for i := range trs {
			trs[i] = newTracer(epoch, keepReqs)
		}
		return trs
	}
	srv := buildKV(c)
	mirror, pool := newMirror(c)
	raw, built := newRaw(c)
	kvBase := &rung{name: "kvserver-untraced", req: kvRequest(srv)}
	kvTraced := &rung{name: "kvserver", req: kvRequest(srv), trs: tracers()}
	mirRung := &rung{name: "mirror", req: mirror.request, trs: tracers()}
	rawRung := &rung{name: "raw", req: raw.request, trs: tracers()}
	rungs := []*rung{kvBase, kvTraced, mirRung, rawRung}

	ws := newWorkers(o.seed, c)
	runtime.GC()
	warm, each := warmups(o)
	dur := time.Duration(o.seconds / float64(len(rungs)*tracedTrials) * float64(time.Second))
	for i := 0; i < tracedTrials; i++ {
		for _, g := range rungs {
			g.run(ws, c.readFrac, warm, dur)
			warm = each
		}
	}
	for _, g := range rungs {
		r.Attempted += g.requests
	}
	r.Failed = missesOf(ws)

	checkKV(r, srv, c.keys, kvBase.updates+kvTraced.updates)
	leaked := pool.Capacity() - pool.Free()
	if leaked != 0 {
		r.gate("mirror: %d pool slots leaked", leaked)
	}
	checkSum(r, "mirror", c.keys, mirRung.updates, mirror.get)
	lockCounters(r, built, rawRung.requests)
	pass, passUpdates := storePass(o.seed, c, raw, passOps)
	checkSum(r, "raw", c.keys, rawRung.updates+passUpdates, raw.get)

	var sets []spanSet
	kvL, mirL, rawL := kvTraced.layers(&sets), mirRung.layers(&sets), rawRung.layers(&sets)
	if err := writeSpans(o.spans, sets, spanNames[:]); err != nil {
		r.gate("%v", err)
	}
	kvReqs := kvTraced.requests
	r.set("kvserver.allocs_per_op", float64(kvTraced.mallocs)/float64(max(kvReqs, 1)), "1/op", kvReqs)
	r.set("trace.overhead_frac", 1-kvTraced.medianOps()/kvBase.medianOps(), "frac", tracedTrials)

	kvReq, mirReq := &kvL[spKVRequest], &mirL[spMirrorRequest]
	r.set("kvserver.request_ns", kvReq.mean(), "ns", kvReq.n)
	// A mirror request reads the clock twice more than a kvserver
	// request (its child span boundaries); that cost is not kvserver's.
	r.set("kvserver.self_ns", kvReq.mean()-(mirReq.mean()-2*clockNs()), "ns", kvReq.n)

	layer := func(name string, h *hist) { r.set(name, h.mean(), "ns", h.n) }
	layer("gonative.acquire_ns", &mirL[spGonativeAcquire])
	r.set("gonative.acquire_p99_ns", mirL[spGonativeAcquire].quantile(0.99), "ns", mirL[spGonativeAcquire].n)
	layer("gonative.release_ns", &mirL[spGonativeRelease])
	layer("gonative.read_acquire_ns", &mirL[spGonativeReadAcquire])
	r.set("gonative.self_ns",
		holdNs(mirL, spGonativeAcquire, spGonativeReadAcquire, spGonativeRelease, spMirrorRequest)-
			holdNs(rawL, spLockAcquire, spLockReadAcquire, spLockRelease, spRawRequest),
		"ns", mirReq.n)
	r.set("gonative.slots_leaked", float64(leaked), "count", uint64(pool.Capacity()))
	layer("lock.acquire_ns", &rawL[spLockAcquire])
	r.set("lock.acquire_p99_ns", rawL[spLockAcquire].quantile(0.99), "ns", rawL[spLockAcquire].n)
	layer("lock.release_ns", &rawL[spLockRelease])
	layer("lock.read_acquire_ns", &rawL[spLockReadAcquire])
	layer("minikv.read_ns", &pass[classRead])
	layer("minikv.write_ns", &pass[classWrite])
	layer("minikv.cs_ns", &mirL[spMinikvOp])
	return r
}
