package kvmap

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/prng"
)

func TestAVLBasicOps(t *testing.T) {
	tr := NewAVL()
	if _, ok := tr.Lookup(5); ok {
		t.Fatal("empty tree found a key")
	}
	if !tr.Insert(5, 50) {
		t.Fatal("insert of new key returned false")
	}
	if tr.Insert(5, 51) {
		t.Fatal("overwrite returned true")
	}
	if v, ok := tr.Lookup(5); !ok || v != 51 {
		t.Fatalf("Lookup(5) = %d,%v", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if !tr.Remove(5) {
		t.Fatal("remove of present key returned false")
	}
	if tr.Remove(5) {
		t.Fatal("double remove returned true")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after remove = %d", tr.Len())
	}
}

func TestAVLSequentialInsertBalances(t *testing.T) {
	// Monotonic inserts are the classic rotation torture.
	tr := NewAVL()
	const n = 1024
	for i := uint64(0); i < n; i++ {
		tr.Insert(i, i)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Height must be O(log n): for 1024 keys, at most ~1.44*log2(1024)+2.
	if h := height(tr.root); h > 16 {
		t.Fatalf("height %d too large for %d keys", h, n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tr.Lookup(i); !ok || v != i {
			t.Fatalf("Lookup(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestAVLRemoveRebalances(t *testing.T) {
	tr := NewAVL()
	for i := uint64(0); i < 512; i++ {
		tr.Insert(i, i)
	}
	// Remove a skewed half.
	for i := uint64(0); i < 256; i++ {
		if !tr.Remove(i) {
			t.Fatalf("Remove(%d) failed", i)
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 256 {
		t.Fatalf("Len = %d, want 256", tr.Len())
	}
}

// Property: a random op sequence matches a reference map and keeps the
// AVL invariants.
func TestAVLMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint64, opsCount uint16) bool {
		rng := prng.New(seed)
		tr := NewAVL()
		ref := map[uint64]uint64{}
		n := int(opsCount)%600 + 50
		for i := 0; i < n; i++ {
			key := uint64(rng.Intn(64))
			switch rng.Intn(3) {
			case 0:
				val := rng.Next()
				added := tr.Insert(key, val)
				_, had := ref[key]
				if added == had {
					return false
				}
				ref[key] = val
			case 1:
				removed := tr.Remove(key)
				_, had := ref[key]
				if removed != had {
					return false
				}
				delete(ref, key)
			default:
				v, ok := tr.Lookup(key)
				rv, rok := ref[key]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		return tr.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMapPrefill(t *testing.T) {
	m := NewMap(locks.NewMCS())
	th := locks.NewThread(0, 0)
	m.Prefill(th, 1024, 42)
	if got := m.Len(th); got != 512 {
		t.Fatalf("prefilled size = %d, want 512", got)
	}
}

func TestMapConcurrentMixedOps(t *testing.T) {
	// The actual §7.1.1 benchmark in miniature, over the real CNA lock:
	// concurrent mixed operations must leave a structurally valid tree.
	const threads = 8
	m := NewMap(core.New())
	setup := locks.NewThread(0, 0)
	m.Prefill(setup, 1024, 7)

	w := DefaultWorkload()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := locks.NewThread(id, id%2)
			for n := 0; n < 500; n++ {
				w.Op(m, th)
			}
		}(i)
	}
	wg.Wait()
	if err := m.tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := m.Len(setup); n < 256 || n > 1024 {
		t.Fatalf("size drifted out of plausible range: %d", n)
	}
}

func TestMapConcurrentUnderEveryLock(t *testing.T) {
	mks := map[string]func() locks.Mutex{
		"MCS": func() locks.Mutex { return locks.NewMCS() },
		"CNA": func() locks.Mutex { return core.New() },
		"BO-TAS": func() locks.Mutex {
			return locks.NewBackoffTAS(locks.DefaultBackoffMin, locks.DefaultBackoffMax)
		},
	}
	for name, mk := range mks {
		mk := mk
		t.Run(name, func(t *testing.T) {
			m := NewMap(mk())
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := locks.NewThread(id, id%2)
					for k := uint64(0); k < 200; k++ {
						m.Put(th, k*4+uint64(id), k)
					}
				}(i)
			}
			wg.Wait()
			th := locks.NewThread(0, 0)
			if n := m.Len(th); n != 800 {
				t.Fatalf("Len = %d, want 800 (disjoint keys)", n)
			}
			if err := m.tree.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWorkloadOpMixAndExternalWork(t *testing.T) {
	m := NewMap(locks.NewMCS())
	th := locks.NewThread(0, 0)
	w := Workload{KeyRange: 16, UpdatePermille: 1000, ExternalWork: 10}
	for i := 0; i < 300; i++ {
		w.Op(m, th) // update-only: inserts and removes
	}
	if err := m.tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.tree.Len() > 16 {
		t.Fatalf("tree grew beyond key range: %d", m.tree.Len())
	}
}

func BenchmarkAVLInsertLookup(b *testing.B) {
	tr := NewAVL()
	rng := prng.New(1)
	for i := 0; i < b.N; i++ {
		k := uint64(rng.Intn(1024))
		tr.Insert(k, k)
		tr.Lookup(k)
	}
}
