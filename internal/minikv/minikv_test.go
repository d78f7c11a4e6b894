package minikv

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/prng"
)

func TestSkipListBasic(t *testing.T) {
	s := NewSkipList(1)
	if _, ok := s.Get(3); ok {
		t.Fatal("empty list found a key")
	}
	s.Put(3, 30)
	s.Put(1, 10)
	s.Put(2, 20)
	for k, want := range map[uint64]uint64{1: 10, 2: 20, 3: 30} {
		if v, ok := s.Get(k); !ok || v != want {
			t.Fatalf("Get(%d) = %d,%v want %d", k, v, ok, want)
		}
	}
	s.Put(2, 21) // overwrite
	if v, _ := s.Get(2); v != 21 {
		t.Fatalf("overwrite failed: %d", v)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestSkipListOrderedDense(t *testing.T) {
	s := NewSkipList(2)
	for i := uint64(0); i < 2000; i++ {
		s.Put(i*2, i)
	}
	for i := uint64(0); i < 2000; i++ {
		if v, ok := s.Get(i * 2); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v", i*2, v, ok)
		}
		if _, ok := s.Get(i*2 + 1); ok {
			t.Fatalf("found absent key %d", i*2+1)
		}
	}
}

// Property: the skiplist agrees with a reference map under random
// writer-sequential workloads.
func TestSkipListMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := prng.New(seed)
		s := NewSkipList(seed ^ 0xabc)
		ref := map[uint64]uint64{}
		for i := 0; i < int(n)%500+20; i++ {
			k, v := uint64(rng.Intn(128)), rng.Next()
			s.Put(k, v)
			ref[k] = v
		}
		for k, v := range ref {
			got, ok := s.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return s.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// shuffled returns the keys 0..n-1 in a seeded random order.
func shuffled(n int, seed uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	rng := prng.New(seed)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

// checkLevels walks every level of s from the head: keys strictly
// increase along each level, each level is a subset of the one below,
// level 0 holds Len nodes, the head links nothing above the list's
// height, every node holds ref's value for its key, and last[i] is the
// final node of level i (the head while the level is empty). Then Get
// must find every key of ref with its value.
func checkLevels(t *testing.T, s *SkipList, ref map[uint64]uint64) {
	t.Helper()
	name := func(n *slNode) string {
		if n == s.head {
			return "the head"
		}
		return fmt.Sprintf("key %d", n.key)
	}
	var below map[*slNode]bool
	for lvl := 0; lvl < maxLevel; lvl++ {
		on := map[*slNode]bool{}
		end := s.head
		for x := s.head.link(lvl).Load(); x != nil; x = x.link(lvl).Load() {
			if lvl >= s.level {
				t.Fatalf("head links key %d on level %d, above the height %d", x.key, lvl, s.level)
			}
			if end != s.head && x.key <= end.key {
				t.Fatalf("level %d: key %d follows %d", lvl, x.key, end.key)
			}
			if lvl > 0 && !below[x] {
				t.Fatalf("key %d is on level %d but not on level %d", x.key, lvl, lvl-1)
			}
			if want, ok := ref[x.key]; !ok || x.value.Load() != want {
				t.Fatalf("key %d holds %d, want %d (present %v)", x.key, x.value.Load(), want, ok)
			}
			on[x] = true
			end = x
		}
		if s.last[lvl] != end {
			t.Fatalf("last[%d] is %s, but level %d ends at %s", lvl, name(s.last[lvl]), lvl, name(end))
		}
		if lvl == 0 && len(on) != s.Len() {
			t.Fatalf("level 0 holds %d nodes, Len is %d", len(on), s.Len())
		}
		below = on
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len is %d, want %d", s.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := s.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v want %d", k, got, ok, want)
		}
	}
}

// TestSkipListLevelsConsistent checks the levels of a list filled in
// random order, so tall nodes were linked between existing ones.
func TestSkipListLevelsConsistent(t *testing.T) {
	const n = 8 << 10
	s := NewSkipList(5)
	ref := map[uint64]uint64{}
	for _, k := range shuffled(n, 6) {
		s.Put(k, k*7)
		ref[k] = k * 7
	}
	if s.level < 6 {
		t.Fatalf("height %d after %d keys: the walk covers no tall nodes", s.level, n)
	}
	checkLevels(t, s, ref)
}

// TestSkipListAppendKeepsLevels checks the levels and last after each
// phase of a fill that appends, inserts between existing keys, and
// appends again. The middle phase mixes Puts of the odd keys between
// the even ones already in the list with Updates of present keys and
// of new keys past the last one; some of its out-of-order inserts are
// tall enough to end a level whose last node they follow, so the
// appends of the last phase need last kept on every level.
func TestSkipListAppendKeepsLevels(t *testing.T) {
	const n = 4 << 10
	s := NewSkipList(7)
	ref := map[uint64]uint64{}
	put := func(k, v uint64) {
		s.Put(k, v)
		ref[k] = v
	}
	for k := uint64(0); k < 2*n; k += 2 {
		put(k, k*7)
	}
	if s.level < 6 {
		t.Fatalf("height %d after %d appends: no tall node was appended", s.level, n)
	}
	checkLevels(t, s, ref)

	rng := prng.New(8)
	top := uint64(2 * n)
	endedUpper := 0
	for _, i := range shuffled(n, 9) {
		switch rng.Intn(3) {
		case 0:
			k := uint64(rng.Intn(n)) * 2
			got := s.Update(k, func(old uint64, ok bool) uint64 {
				if !ok || old != ref[k] {
					t.Fatalf("Update(%d) saw %d,%v want %d,true", k, old, ok, ref[k])
				}
				return old + 1
			})
			ref[k] = got
		case 1:
			top++
			k := top
			ref[k] = s.Update(k, func(old uint64, ok bool) uint64 {
				if ok {
					t.Fatalf("Update(%d) past the last key saw %d,true", k, old)
				}
				return k * 5
			})
		}
		// An insert below the last key cannot move last[0], so any move
		// of last is on a level above 0.
		before, k := s.last, 2*i+1
		put(k, i)
		if k < before[0].key && s.last != before {
			endedUpper++
		}
	}
	if endedUpper == 0 {
		t.Fatal("no out-of-order insert ended a level above 0")
	}
	checkLevels(t, s, ref)

	for k := top + 1; k < top+n; k++ {
		put(k, k*3)
	}
	checkLevels(t, s, ref)
}

// Property: Update agrees with a reference map. f sees the held value
// and ok for present keys and (0, false) for absent ones, runs once,
// and its result is returned and stored; Puts interleave.
func TestSkipListUpdate(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := prng.New(seed)
		s := NewSkipList(seed ^ 0xdef)
		ref := map[uint64]uint64{}
		for i := 0; i < int(n)%500+20; i++ {
			k, d := uint64(rng.Intn(128)), rng.Next()
			if rng.Intn(4) == 0 {
				s.Put(k, d)
				ref[k] = d
				continue
			}
			want, wantOK := ref[k]
			calls := 0
			got := s.Update(k, func(old uint64, ok bool) uint64 {
				calls++
				if old != want || ok != wantOK {
					t.Errorf("Update(%d) saw (%d, %v), want (%d, %v)", k, old, ok, want, wantOK)
				}
				return old ^ d
			})
			if calls != 1 || got != want^d {
				t.Errorf("Update(%d) called f %d times and returned %d, want once and %d", k, calls, got, want^d)
				return false
			}
			ref[k] = got
			if s.Len() != len(ref) {
				t.Errorf("Len %d, want %d", s.Len(), len(ref))
				return false
			}
		}
		for k := uint64(0); k < 128; k++ {
			want, wantOK := ref[k]
			if got, ok := s.Get(k); got != want || ok != wantOK {
				t.Errorf("Get(%d) = %d,%v want %d,%v", k, got, ok, want, wantOK)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSkipListBytesPerKey pins the memtable's compactness as
// kvserver's TestShardLocksAreCompact pins its locks: 64 Ki keys at
// kvserver's shard-0 seed live in at most 32 B of heap each. Nodes
// only as tall as their level average about 27 B; full-height nodes
// would cost 112 B.
func TestSkipListBytesPerKey(t *testing.T) {
	const n = 64 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewSkipList(0x5e17)
	for k := uint64(0); k < n; k++ {
		s.Put(k, k*3+1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	perKey := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%d keys: %.1f B of heap per key", n, perKey)
	if perKey > 32 {
		t.Errorf("%.1f B per key, want at most 32", perKey)
	}
}

func TestSkipListConcurrentReadersOneWriter(t *testing.T) {
	// The leveldb guarantee this structure exists for: readers racing a
	// writer observe only fully-linked nodes. Keys go in shuffled, so
	// tall nodes are linked between existing ones while readers walk
	// past them; under -race, checkptr checks every inline link the
	// walks reach.
	raceReadersOneWriter(t, shuffled(4<<10, 4))
}

// TestSkipListConcurrentReadersAppendingWriter: keys go in ascending,
// so every insert is an append whose node is written with plain stores
// before it is linked; under -race, those stores are checked against
// the readers' atomic loads.
func TestSkipListConcurrentReadersAppendingWriter(t *testing.T) {
	order := make([]uint64, 4<<10)
	for i := range order {
		order[i] = uint64(i)
	}
	raceReadersOneWriter(t, order)
}

// raceReadersOneWriter inserts order's keys, each holding seven times
// itself, while three readers Get random keys: a key found must hold
// its value, and a key published before a Get starts must be found.
func raceReadersOneWriter(t *testing.T, order []uint64) {
	n := len(order)
	s := NewSkipList(3)
	var published atomic.Int64
	var mu sync.Mutex // external writer lock, like the DB mutex
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := prng.New(seed)
			for {
				select {
				case <-done:
					return
				default:
				}
				k := uint64(rng.Intn(n))
				if v, ok := s.Get(k); ok && v != k*7 {
					t.Errorf("torn read: key %d value %d", k, v)
					return
				}
				if p := published.Load(); p > 0 {
					k := order[rng.Intn(int(p))]
					if v, ok := s.Get(k); !ok || v != k*7 {
						t.Errorf("published key %d read as %d,%v", k, v, ok)
						return
					}
				}
			}
		}(uint64(r + 10))
	}
	mu.Lock()
	for i, k := range order {
		s.Put(k, k*7)
		published.Store(int64(i + 1))
	}
	mu.Unlock()
	close(done)
	wg.Wait()
}

// TestPlainStoreLayout: newLinked writes a node's value and links with
// plain stores through casts, which is sound only while atomic.Uint64
// is its value word at offset 0 and atomic.Pointer[slNode] is exactly
// one pointer word. Pin that layout and the plain-write/atomic-read
// agreement, as core's TestClearNextLayoutAssumption does for
// locks.Node.ClearNext, so a standard library change fails here
// instead of corrupting the list.
func TestPlainStoreLayout(t *testing.T) {
	if got := unsafe.Sizeof(atomic.Uint64{}); got != 8 {
		t.Fatalf("atomic.Uint64 is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(atomic.Pointer[slNode]{}); got != unsafe.Sizeof(unsafe.Pointer(nil)) {
		t.Fatalf("atomic.Pointer[slNode] is %d bytes, want pointer-sized", got)
	}
	var prev [maxLevel]*slNode
	for i := range prev {
		prev[i] = newNode[maxLevel-1]()
		prev[i].link(i).Store(&slNode{key: uint64(100 + i)})
	}
	n := newLinked(7, 0xfeedface, maxLevel, &prev)
	if n.key != 7 || n.value.Load() != 0xfeedface {
		t.Fatalf("node holds key %d value %#x, want 7 and 0xfeedface", n.key, n.value.Load())
	}
	for i := range prev {
		if got, want := n.link(i).Load(), prev[i].link(i).Load(); got != want {
			t.Fatalf("link %d = %p, want %p", i, got, want)
		}
	}
}

func TestLRUShardEviction(t *testing.T) {
	th := locks.NewThread(0, 0)
	c := NewShardedLRU(1, 3, func() locks.Mutex { return locks.NewTAS() })
	c.Put(th, 1, 10)
	c.Put(th, 2, 20)
	c.Put(th, 3, 30)
	c.Get(th, 1) // refresh 1; LRU order now 1,3,2
	c.Put(th, 4, 40)
	if _, ok := c.Get(th, 2); ok {
		t.Fatal("LRU tail (2) not evicted")
	}
	for _, k := range []uint64{1, 3, 4} {
		if _, ok := c.Get(th, k); !ok {
			t.Fatalf("key %d wrongly evicted", k)
		}
	}
	if c.Len(th) != 3 {
		t.Fatalf("Len = %d", c.Len(th))
	}
}

func TestLRUShardOverwrite(t *testing.T) {
	th := locks.NewThread(0, 0)
	c := NewShardedLRU(2, 8, func() locks.Mutex { return locks.NewTAS() })
	c.Put(th, 5, 1)
	c.Put(th, 5, 2)
	if v, ok := c.Get(th, 5); !ok || v != 2 {
		t.Fatalf("Get(5) = %d,%v", v, ok)
	}
	if c.Len(th) != 1 {
		t.Fatalf("Len = %d after overwrite", c.Len(th))
	}
}

func TestLRUClampsShards(t *testing.T) {
	th := locks.NewThread(0, 0)
	c := NewShardedLRU(0, 0, func() locks.Mutex { return locks.NewTAS() })
	c.Put(th, 1, 1)
	if _, ok := c.Get(th, 1); !ok {
		t.Fatal("single-shard cache lost its entry")
	}
}

func newTestDB(cache bool) *DB {
	opts := Options{GlobalLock: core.New()}
	if cache {
		opts.CacheShards = 16
		opts.CacheCapacity = 4096
		opts.MkShardLock = func() locks.Mutex { return core.New() }
	}
	return Open(opts)
}

func TestDBPutGet(t *testing.T) {
	db := newTestDB(true)
	th := locks.NewThread(0, 0)
	db.Put(th, 10, 100)
	if v, ok := db.Get(th, 10); !ok || v != 100 {
		t.Fatalf("Get(10) = %d,%v", v, ok)
	}
	if _, ok := db.Get(th, 11); ok {
		t.Fatal("found absent key")
	}
}

func TestDBRefcountBalance(t *testing.T) {
	db := newTestDB(false)
	th := locks.NewThread(0, 0)
	db.FillSequential(th, 100)
	for i := 0; i < 50; i++ {
		db.Get(th, uint64(i))
	}
	if refs := db.Refs(th); refs != 1 {
		t.Fatalf("version refs = %d after quiescence, want 1", refs)
	}
}

func TestDBFillAndReadRandom(t *testing.T) {
	db := newTestDB(true)
	th := locks.NewThread(0, 0)
	db.FillSequential(th, 1000)
	if n := db.Len(th); n != 1000 {
		t.Fatalf("Len = %d", n)
	}
	hits := 0
	for i := 0; i < 500; i++ {
		if db.ReadRandom(th, 1000) {
			hits++
		}
	}
	if hits != 500 {
		t.Fatalf("readrandom hits %d/500 on a fully filled range", hits)
	}
}

func TestDBConcurrentReadRandom(t *testing.T) {
	const threads = 8
	db := newTestDB(true)
	setup := locks.NewThread(0, 0)
	db.FillSequential(setup, 2000)

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := locks.NewThread(w, w%2)
			for i := 0; i < 300; i++ {
				db.ReadRandom(th, 2000)
			}
		}(w)
	}
	wg.Wait()
	if refs := db.Refs(setup); refs != 1 {
		t.Fatalf("version refs = %d after concurrent reads", refs)
	}
}

func TestDBConcurrentMixed(t *testing.T) {
	const threads = 6
	db := newTestDB(true)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := locks.NewThread(w, w%2)
			for i := 0; i < 200; i++ {
				if i%4 == 0 {
					db.Put(th, uint64(w*1000+i), uint64(i))
				} else {
					db.Get(th, uint64(th.RNG.Intn(threads*1000)))
				}
			}
		}(w)
	}
	wg.Wait()
	th := locks.NewThread(0, 0)
	// Every written key must be readable.
	for w := 0; w < threads; w++ {
		for i := 0; i < 200; i += 4 {
			if v, ok := db.Get(th, uint64(w*1000+i)); !ok || v != uint64(i) {
				t.Fatalf("lost write: key %d = %d,%v", w*1000+i, v, ok)
			}
		}
	}
}

func TestOpenValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Open without GlobalLock did not panic")
		}
	}()
	Open(Options{})
}

func BenchmarkDBGet(b *testing.B) {
	db := newTestDB(true)
	th := locks.NewThread(0, 0)
	db.FillSequential(th, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ReadRandom(th, 10000)
	}
}

// benchShapes are the bench's three kvserver stores as the skiplists
// see them: kv-spread's 64 Ki keys over 16 lists with zipf 0.99
// requests, kv-hot's 256 keys and kv-readmostly's 4 Ki keys with
// uniform requests. Lists are seeded, filled and routed to as kvserver
// does.
var benchShapes = []struct {
	name  string
	lists int
	keys  uint64
	theta float64
}{
	{"spread", 16, 64 << 10, 0.99},
	{"hot", 1, 256, 0},
	{"readmostly", 1, 4 << 10, 0},
}

// benchStream is the length of the request key stream a benchmark
// cycles through (a power of two).
const benchStream = 1 << 16

func routeKey(k uint64, lists int) int { return int(k * 0x9e3779b97f4a7c15 % uint64(lists)) }

// newStore returns a shape's empty lists, seeded as kvserver seeds its
// shards.
func newStore(lists int) []*SkipList {
	ls := make([]*SkipList, lists)
	for i := range ls {
		ls[i] = NewSkipList(uint64(i)*0x9e3779b97f4a7c15 + 0x5e17)
	}
	return ls
}

// benchStore builds a shape's filled lists and its request key stream.
func benchStore(lists int, keys uint64, theta float64) ([]*SkipList, []uint64) {
	ls := newStore(lists)
	for k := uint64(0); k < keys; k++ {
		ls[routeKey(k, lists)].Put(k, k*3+1)
	}
	z := prng.NewZipf(1, theta, keys)
	stream := make([]uint64, benchStream)
	for i := range stream {
		stream[i] = z.ScrambledNext()
	}
	return ls, stream
}

// BenchmarkSkipListFill fills a shape's lists with the keys 0..n-1 in
// order, as the bench's prefill fills kvserver's shards. One op is one
// key, so ns/op is the fill cost per key, the lists' construction
// included: a fresh store starts every n keys.
func BenchmarkSkipListFill(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			var ls []*SkipList
			k := sh.keys
			for b.Loop() {
				if k == sh.keys {
					ls, k = newStore(sh.lists), 0
				}
				ls[routeKey(k, len(ls))].Put(k, k*3+1)
				k++
			}
		})
	}
}

func BenchmarkSkipListGet(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			lists, keys := benchStore(sh.lists, sh.keys, sh.theta)
			i := 0
			for b.Loop() {
				k := keys[i&(benchStream-1)]
				lists[routeKey(k, len(lists))].Get(k)
				i++
			}
		})
	}
}

func BenchmarkSkipListUpdate(b *testing.B) {
	inc := func(old uint64, _ bool) uint64 { return old + 1 }
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			lists, keys := benchStore(sh.lists, sh.keys, sh.theta)
			i := 0
			for b.Loop() {
				k := keys[i&(benchStream-1)]
				lists[routeKey(k, len(lists))].Update(k, inc)
				i++
			}
		})
	}
}
