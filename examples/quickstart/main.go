// Quickstart: use a CNA lock exactly like a sync.Mutex.
//
// repro.NewMutex returns any registered lock in goroutine-native form —
// a sync.Locker with TryLock, no per-worker Thread values to manage.
// Swapping "cna" for "std" (sync.Mutex), "mcs-park", or any name from
// repro.LockNames() is a one-string change; the explicit-Thread API
// (repro.Build) remains for code that manages worker identities itself.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"sync"

	"repro"
)

func main() {
	const workers = 8
	const itersPerWorker = 10000

	// Drop-in construction: no Env, no Threads — the adapter claims a
	// pooled thread identity per acquisition behind the scenes. Prefer
	// the "-park" variants ("cna-park") when goroutines can outnumber
	// processors for long stretches.
	lock := repro.MustNewMutex("cna")

	// The compiler holds us to the drop-in claim.
	var _ sync.Locker = lock

	counter := 0
	skipped := 0
	var mu sync.Mutex // guards skipped only
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < itersPerWorker; i++ {
				lock.Lock()
				counter++
				lock.Unlock()
			}
			// TryLock is the non-blocking probe: it never queues, so a
			// busy lock just means "do something else".
			if lock.TryLock() {
				counter += 0 // critical section would go here
				lock.Unlock()
			} else {
				mu.Lock()
				skipped++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	fmt.Printf("%s: counter = %d (want %d)\n", lock.Name(), counter, workers*itersPerWorker)
	fmt.Printf("TryLock probes skipped on contention: %d of %d\n", skipped, workers)
	if counter != workers*itersPerWorker {
		os.Exit(1)
	}
}
