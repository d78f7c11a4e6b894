package gonative

import _ "unsafe" // for go:linkname

// procPin disables preemption of the calling goroutine and returns the
// id of the P (the scheduler's processor, one of GOMAXPROCS) it runs
// on; procUnpin re-enables preemption. They are pulled from the
// runtime by go:linkname, the same pair sync.Pool keys its per-P state
// by. The runtime keeps both linkable with fixed signatures because
// widely used packages reach them this way (go.dev/issue/67401), so
// the Go 1.23+ linker permits the pull.
//
// A pinned goroutine cannot be stopped for a stop-the-world, so the
// pin is never held across any other call: hint unpins at once.

//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()
