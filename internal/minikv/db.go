package minikv

import (
	"repro/internal/locks"
)

// version stands for leveldb's Version: the immutable view of the
// on-disk structure a Get operates against. Reference counts are
// manipulated only under the DB mutex, as in leveldb.
type version struct {
	refs int
	// generation distinguishes versions in tests.
	generation uint64
}

// DB is the miniature leveldb. All cross-structure coordination happens
// under mu — the "global database lock" of the paper — while the
// memtable tolerates lock-free readers and the block cache carries its
// own sharded locks.
type DB struct {
	mu      locks.Mutex
	mem     *SkipList
	current *version
	seq     uint64

	cache *ShardedLRU
	// cacheEnabled mirrors the empty-database experiment, where Gets
	// never reach the LRU cache.
	cacheEnabled bool
}

// Options configure Open.
type Options struct {
	// GlobalLock is the database mutex (required).
	GlobalLock locks.Mutex
	// CacheShards and CacheCapacity configure the sharded LRU
	// (leveldb's default shard count is 16).
	CacheShards   int
	CacheCapacity int
	// MkShardLock supplies each cache shard's mutex.
	MkShardLock func() locks.Mutex
}

// Open creates an empty database.
func Open(opts Options) *DB {
	if opts.GlobalLock == nil {
		panic("minikv: GlobalLock required")
	}
	db := &DB{
		mu:      opts.GlobalLock,
		mem:     NewSkipList(0xdb),
		current: &version{refs: 1, generation: 1},
	}
	if opts.CacheShards > 0 {
		if opts.MkShardLock == nil {
			panic("minikv: MkShardLock required with CacheShards > 0")
		}
		db.cache = NewShardedLRU(opts.CacheShards, opts.CacheCapacity, opts.MkShardLock)
		db.cacheEnabled = true
	}
	return db
}

// Put inserts a key-value pair. Writes are serialised by the DB mutex
// (leveldb additionally batches; the lock profile is the same).
func (d *DB) Put(t *locks.Thread, key, value uint64) {
	d.mu.Lock(t)
	d.seq++
	d.mem.Put(key, value)
	d.mu.Unlock(t)
}

// Get is the readrandom hot path, with leveldb's exact locking shape:
//
//  1. take the DB mutex, snapshot the memtable/version pointers and
//     bump the version refcount;
//  2. search without the mutex;
//  3. consult/update the sharded LRU cache under its shard lock;
//  4. retake the DB mutex to drop the reference.
func (d *DB) Get(t *locks.Thread, key uint64) (uint64, bool) {
	d.mu.Lock(t)
	mem := d.mem
	v := d.current
	v.refs++
	d.mu.Unlock(t)

	val, ok := mem.Get(key)
	if d.cacheEnabled {
		if cv, hit := d.cache.Get(t, key); hit {
			val, ok = cv, true
		} else if ok {
			d.cache.Put(t, key, val)
		}
	}

	d.mu.Lock(t)
	v.refs--
	d.mu.Unlock(t)
	return val, ok
}

// Len returns the memtable size under the mutex.
func (d *DB) Len(t *locks.Thread) int {
	d.mu.Lock(t)
	n := d.mem.Len()
	d.mu.Unlock(t)
	return n
}

// Refs returns the current version's refcount (tests; take under mutex).
func (d *DB) Refs(t *locks.Thread) int {
	d.mu.Lock(t)
	r := d.current.refs
	d.mu.Unlock(t)
	return r
}

// FillSequential loads the keys 0..n-1 in order, like db_bench's
// fillseq step that builds the 1M-pair database the paper reads from.
// Each key is past the last one, so the memtable appends it without a
// walk.
func (d *DB) FillSequential(t *locks.Thread, n int) {
	for i := 0; i < n; i++ {
		d.Put(t, uint64(i), uint64(i)*3+1)
	}
}

// ReadRandom performs one db_bench readrandom operation: a Get with a
// uniformly random key in [0, keyRange).
func (d *DB) ReadRandom(t *locks.Thread, keyRange int) bool {
	_, ok := d.Get(t, uint64(t.RNG.Intn(keyRange)))
	return ok
}
