// Package minikv is a small LSM-flavoured key-value store that
// reproduces the lock-contention structure of leveldb as the paper's
// Section 7.1.2 exercises it with db_bench readrandom:
//
//   - a skiplist memtable whose readers are lock-free (like leveldb's),
//     with leveldb's node layout: each node is one allocation holding
//     exactly as many links as its level, about 27 B per key. A key
//     past the last one is appended without a walk, so a sequential
//     fill costs no search, and a new node is written with plain stores
//     until it is published;
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
	"unsafe"

	"repro/internal/prng"
)

const maxLevel = 12

// slNode is a skiplist node laid out as leveldb lays out its memtable
// nodes: the key, the value, then one link per level, all in one
// allocation. The struct declares only the level-0 link; a node of
// level h is allocated with h-1 more links inline after it (newNode),
// and link reaches them. At p = 1/4 three nodes in four have level 1,
// so a node averages 27 B of heap against 112 B for a full-height one.
// Links are atomic so concurrent readers never see a torn update
// (leveldb's memtable gives the same guarantee).
type slNode struct {
	key   uint64
	value atomic.Uint64
	next  [1]atomic.Pointer[slNode]
}

// tallNode is the allocation behind a node with len(T)+1 links; T is
// an array of links. Go has no variable-length structs, so each height
// is its own type, which also gives the collector the exact pointer map
// of the node.
type tallNode[T any] struct {
	slNode
	more T
}

func newTall[T any]() *slNode { return &new(tallNode[T]).slNode }

// newNode[h] allocates a zeroed node of level h+1. Level 1 is a bare
// slNode: Go pads a struct that ends in a zero-length array, so
// tallNode[[0]...] would take 32 B instead of 24.
var newNode = [maxLevel]func() *slNode{
	func() *slNode { return new(slNode) },
	newTall[[1]atomic.Pointer[slNode]],
	newTall[[2]atomic.Pointer[slNode]],
	newTall[[3]atomic.Pointer[slNode]],
	newTall[[4]atomic.Pointer[slNode]],
	newTall[[5]atomic.Pointer[slNode]],
	newTall[[6]atomic.Pointer[slNode]],
	newTall[[7]atomic.Pointer[slNode]],
	newTall[[8]atomic.Pointer[slNode]],
	newTall[[9]atomic.Pointer[slNode]],
	newTall[[10]atomic.Pointer[slNode]],
	newTall[[11]atomic.Pointer[slNode]],
}

// link returns n's link on level lvl. lvl must be below n's level: a
// walk only reaches a node on levels it was linked on, and the head is
// full height.
func (n *slNode) link(lvl int) *atomic.Pointer[slNode] {
	return (*atomic.Pointer[slNode])(unsafe.Add(unsafe.Pointer(&n.next[0]), uintptr(lvl)*unsafe.Sizeof(n.next[0])))
}

// newLinked allocates a node of level lvl holding key and value whose
// link i points where prev[i]'s does. No other goroutine can reach the
// node until a link to it is stored, so its value and links take plain
// stores, as locks.Node.ClearNext writes a node before the tail swap
// publishes it: Go compiles an atomic store to XCHG, a full barrier.
// The casts rely on the layout TestPlainStoreLayout pins.
func newLinked(key, value uint64, lvl int, prev *[maxLevel]*slNode) *slNode {
	n := newNode[lvl-1]()
	n.key = key
	*(*uint64)(unsafe.Pointer(&n.value)) = value
	for i := 0; i < lvl; i++ {
		*(*unsafe.Pointer)(unsafe.Pointer(n.link(i))) = unsafe.Pointer(prev[i].link(i).Load())
	}
	return n
}

// SkipList maps uint64 keys to uint64 values. Reads may run concurrently
// with one writer; writers must be serialised externally (the DB mutex
// does this, as in leveldb). The writer keeps the last node of every
// level, so a key past the last one is appended without a walk, as
// RocksDB's InlineSkipList does for sequential inserts. A new node is
// written with plain stores until its links publish it.
type SkipList struct {
	head *slNode
	// level is the list's height. Only the writer reads it: readers walk
	// from maxLevel, where the head's links above the height are nil.
	level  int
	length int
	rng    *prng.Xoroshiro
	// last[i] is the last node on level i, or the head while level i is
	// empty. Only the writer uses it. It comes after the fields above
	// so that head, level and last[0], which every Update reads, share
	// one cache line.
	last [maxLevel]*slNode
}

// NewSkipList returns an empty skiplist with a deterministic level
// generator.
func NewSkipList(seed uint64) *SkipList {
	s := &SkipList{head: newNode[maxLevel-1](), level: 1, rng: prng.New(seed)}
	for i := range s.last {
		s.last[i] = s.head
	}
	return s
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
// it on every level. It returns the level-0 successor it compared, as
// leveldb does: loading x's link again could return a node a concurrent
// writer has since linked in front of key.
func (s *SkipList) findGreaterOrEqual(key uint64, top int, prev *[maxLevel]*slNode) *slNode {
	x := s.head
	var nxt *slNode
	for lvl := top - 1; lvl >= 0; lvl-- {
		for {
			nxt = x.link(lvl).Load()
			if nxt == nil || nxt.key >= key {
				break
			}
			x = nxt
		}
		if prev != nil {
			prev[lvl] = x
		}
	}
	return nxt
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
	s.Update(key, func(uint64, bool) uint64 { return value })
}

// Update stores f(old, ok) under key and returns it, where old is the
// value key holds and ok reports whether it holds one (old is 0 when
// not). A key past the last one is appended after the last node of
// each level without a walk; any other key takes one walk, which finds
// the node to change or the place to insert. The new node is written
// with plain stores and then published bottom-up. Callers must hold the
// external writer lock.
func (s *SkipList) Update(key uint64, f func(old uint64, ok bool) uint64) uint64 {
	var prev [maxLevel]*slNode
	if key > s.last[0].key {
		prev = s.last
	} else {
		n := s.findGreaterOrEqual(key, s.level, &prev)
		if n != nil && n.key == key {
			v := f(n.value.Load(), true)
			n.value.Store(v)
			return v
		}
	}
	v := f(0, false)
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			prev[i] = s.head
		}
		s.level = lvl
	}
	node := newLinked(key, v, lvl, &prev)
	// Link bottom-up so concurrent readers always see a consistent list:
	// a node becomes visible at level 0 first, fully initialised.
	for i := 0; i < lvl; i++ {
		prev[i].link(i).Store(node)
		if prev[i] == s.last[i] {
			s.last[i] = node
		}
	}
	s.length++
	return v
}
