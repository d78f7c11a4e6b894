// Package minikv is a small LSM-flavoured key-value store that
// reproduces the lock-contention structure of leveldb as the paper's
// Section 7.1.2 exercises it with db_bench readrandom:
//
//   - a skiplist memtable whose readers are lock-free (like leveldb's),
//   - a global database mutex taken briefly by every Get to snapshot
//     internal structure pointers and bump reference counters,
//   - a sharded LRU block cache whose shard mutexes are taken on every
//     accessed key.
//
// The store is generic over locks.Mutex, so any lock in this repository
// (MCS, CNA, cohort, HMCS, ...) can serve as the global and shard locks,
// mirroring the paper's LD_PRELOAD interposition of pthread mutexes.
package minikv

import (
	"sync/atomic"

	"repro/internal/prng"
)

const maxLevel = 12

// slNode is a skiplist node with atomic forward pointers so concurrent
// readers never see a torn update (leveldb's memtable gives the same
// guarantee).
type slNode struct {
	key   uint64
	value atomic.Uint64
	next  [maxLevel]atomic.Pointer[slNode]
}

// SkipList maps uint64 keys to uint64 values. Reads may run concurrently
// with one writer; writers must be serialised externally (the DB mutex
// does this, as in leveldb).
type SkipList struct {
	head *slNode
	// level is the list's height. Only the writer reads it: readers walk
	// from maxLevel, where the head's links above the height are nil.
	level  int
	length int
	rng    *prng.Xoroshiro
}

// NewSkipList returns an empty skiplist with a deterministic level
// generator.
func NewSkipList(seed uint64) *SkipList {
	return &SkipList{head: &slNode{}, level: 1, rng: prng.New(seed)}
}

// Len returns the number of keys (writer-side accuracy only).
func (s *SkipList) Len() int { return s.length }

// randomLevel draws a geometric level in [1, maxLevel].
func (s *SkipList) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && s.rng.Next()&3 == 0 { // p = 1/4, like leveldb
		lvl++
	}
	return lvl
}

// findGreaterOrEqual locates the first node with key >= key, walking
// down from level top-1 and filling prev with the rightmost node before
// it on every level.
func (s *SkipList) findGreaterOrEqual(key uint64, top int, prev *[maxLevel]*slNode) *slNode {
	x := s.head
	for lvl := top - 1; lvl >= 0; lvl-- {
		for {
			nxt := x.next[lvl].Load()
			if nxt != nil && nxt.key < key {
				x = nxt
				continue
			}
			break
		}
		if prev != nil {
			prev[lvl] = x
		}
	}
	return x.next[0].Load()
}

// Get returns the value stored under key. Safe for concurrent use with
// one writer.
func (s *SkipList) Get(key uint64) (uint64, bool) {
	n := s.findGreaterOrEqual(key, maxLevel, nil)
	if n != nil && n.key == key {
		return n.value.Load(), true
	}
	return 0, false
}

// Put inserts or updates a key. Callers must hold the external writer
// lock.
func (s *SkipList) Put(key, value uint64) {
	var prev [maxLevel]*slNode
	n := s.findGreaterOrEqual(key, s.level, &prev)
	if n != nil && n.key == key {
		n.value.Store(value)
		return
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			prev[i] = s.head
		}
		s.level = lvl
	}
	node := &slNode{key: key}
	node.value.Store(value)
	// Link bottom-up so concurrent readers always see a consistent list:
	// a node becomes visible at level 0 first, fully initialised.
	for i := 0; i < lvl; i++ {
		node.next[i].Store(prev[i].next[i].Load())
	}
	for i := 0; i < lvl; i++ {
		prev[i].next[i].Store(node)
	}
	s.length++
}
