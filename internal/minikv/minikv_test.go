package minikv

import (
	"sync"
	"testing"
	"testing/quick"

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

func TestSkipListConcurrentReadersOneWriter(t *testing.T) {
	// The leveldb guarantee this structure exists for: readers racing a
	// writer observe only fully-linked nodes.
	s := NewSkipList(3)
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
				k := uint64(rng.Intn(512))
				if v, ok := s.Get(k); ok && v != k*7 {
					t.Errorf("torn read: key %d value %d", k, v)
					return
				}
			}
		}(uint64(r + 10))
	}
	mu.Lock()
	for i := uint64(0); i < 512; i++ {
		s.Put(i, i*7)
	}
	mu.Unlock()
	close(done)
	wg.Wait()
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
