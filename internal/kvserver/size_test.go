package kvserver

import (
	"testing"
	"unsafe"
)

// TestShardIsOneCacheLine: a shard must fill exactly one 64-byte cache
// line, as its padding comment promises — neither spilling into the
// next shard's line nor leaving a tail that the next shard shares.
func TestShardIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(shard{}); got != 64 {
		t.Fatalf("shard is %d bytes, want exactly 64", got)
	}
}
