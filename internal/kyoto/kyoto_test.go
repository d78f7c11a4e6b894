package kyoto

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/locks"
)

func newDB(slots int) *DB {
	return New(slots, func() locks.Mutex { return core.New() })
}

func TestSetGetRemove(t *testing.T) {
	db := newDB(4)
	th := locks.NewThread(0, 0)
	db.Set(th, 7, []byte("hello"))
	v, ok := db.Get(th, 7)
	if !ok || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if !db.Remove(th, 7) {
		t.Fatal("Remove of present key failed")
	}
	if db.Remove(th, 7) {
		t.Fatal("double Remove succeeded")
	}
	if _, ok := db.Get(th, 7); ok {
		t.Fatal("removed key still present")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	db := newDB(2)
	th := locks.NewThread(0, 0)
	db.Set(th, 1, []byte{1, 2, 3})
	v, _ := db.Get(th, 1)
	v[0] = 99
	again, _ := db.Get(th, 1)
	if again[0] != 1 {
		t.Fatal("Get aliases internal storage")
	}
}

func TestAppend(t *testing.T) {
	db := newDB(2)
	th := locks.NewThread(0, 0)
	db.Append(th, 5, []byte("ab"))
	db.Append(th, 5, []byte("cd"))
	v, _ := db.Get(th, 5)
	if !bytes.Equal(v, []byte("abcd")) {
		t.Fatalf("Append result %q", v)
	}
}

func TestIncrement(t *testing.T) {
	db := newDB(2)
	th := locks.NewThread(0, 0)
	if v := db.Increment(th, 9, 5); v != 5 {
		t.Fatalf("first Increment = %d", v)
	}
	if v := db.Increment(th, 9, 3); v != 8 {
		t.Fatalf("second Increment = %d", v)
	}
}

func TestCountCrossSlot(t *testing.T) {
	db := newDB(8)
	th := locks.NewThread(0, 0)
	for i := uint64(0); i < 100; i++ {
		db.Set(th, i, []byte{byte(i)})
	}
	if n := db.Count(th); n != 100 {
		t.Fatalf("Count = %d", n)
	}
}

func TestSlotClamp(t *testing.T) {
	db := newDB(0)
	th := locks.NewThread(0, 0)
	db.Set(th, 1, []byte("x"))
	if n := db.Count(th); n != 1 {
		t.Fatalf("Count = %d", n)
	}
}

func TestConcurrentWicked(t *testing.T) {
	const threads = 8
	db := newDB(16)
	w := Wicked{KeyRange: 512, ValueSize: 8}
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := locks.NewThread(id, id%2)
			scratch := make([]byte, w.ValueSize)
			for n := 0; n < 600; n++ {
				w.Op(db, th, scratch)
			}
		}(i)
	}
	wg.Wait()
	th := locks.NewThread(0, 0)
	if n := db.Count(th); n < 0 || n > 512 {
		t.Fatalf("Count = %d outside key range bound", n)
	}
}

func TestConcurrentIncrementExact(t *testing.T) {
	// Increments are the mutual-exclusion acid test: no lost updates.
	const threads, iters = 6, 400
	db := newDB(4)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := locks.NewThread(id, id%2)
			for n := 0; n < iters; n++ {
				db.Increment(th, 42, 1)
			}
		}(i)
	}
	wg.Wait()
	th := locks.NewThread(0, 0)
	if v := db.Increment(th, 42, 0); v != threads*iters {
		t.Fatalf("counter = %d, want %d", v, threads*iters)
	}
}

// Property: encode/decode round-trips.
func TestCounterCodecProperty(t *testing.T) {
	f := func(v uint64) bool {
		b := make([]byte, 8)
		encode64(b, v)
		return decode64(b) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if decode64([]byte{1, 2}) != 0 {
		t.Fatal("short buffer should decode to 0")
	}
}
