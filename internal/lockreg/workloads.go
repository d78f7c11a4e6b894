package lockreg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/harness"
	"repro/internal/kernelsim"
	"repro/internal/locks"
	"repro/internal/numa"
)

// WorkloadSpec describes one registered contended workload, the other
// axis of the paper's lock × workload evaluation matrix. Like lock
// Specs, workloads are registered under canonical names so the
// benchmark pipeline sweeps the full matrix without per-binary switch
// statements.
type WorkloadSpec struct {
	// Name is the canonical workload name used in CLI flags and report
	// result names.
	Name string
	// Description is a one-line summary for CLI help and the generated
	// BENCHMARKS.md.
	Description string
	// PaperRef cross-references the paper figure/section the workload's
	// contention structure mirrors.
	PaperRef string
	// Kernel marks workloads that drive the kernelsim mini-VFS.
	Kernel bool
	// Make builds the harness workload running the given lock algorithm.
	// The returned Workload constructs fresh state per run, so repeats
	// are independent.
	Make func(spec Spec, env Env) harness.Workload
}

// workloadRegistry holds WorkloadSpecs in registration order plus a
// normalized-name index (same normalization as lock names).
var workloadRegistry struct {
	specs []WorkloadSpec
	index map[string]int
}

// RegisterWorkload adds a WorkloadSpec to the registry, panicking on
// duplicate or empty names (registration happens at init time).
func RegisterWorkload(s WorkloadSpec) {
	if s.Name == "" || s.Make == nil {
		panic("lockreg: WorkloadSpec needs a Name and a Make func")
	}
	if workloadRegistry.index == nil {
		workloadRegistry.index = make(map[string]int)
	}
	k := normalize(s.Name)
	if _, dup := workloadRegistry.index[k]; dup {
		panic(fmt.Sprintf("lockreg: workload %q already registered", s.Name))
	}
	workloadRegistry.index[k] = len(workloadRegistry.specs)
	workloadRegistry.specs = append(workloadRegistry.specs, s)
}

// Workloads returns every registered WorkloadSpec in registration order.
func Workloads() []WorkloadSpec {
	out := make([]WorkloadSpec, len(workloadRegistry.specs))
	copy(out, workloadRegistry.specs)
	return out
}

// WorkloadNames returns the canonical workload names in registration
// order.
func WorkloadNames() []string {
	out := make([]string, len(workloadRegistry.specs))
	for i, s := range workloadRegistry.specs {
		out[i] = s.Name
	}
	return out
}

// LookupWorkload resolves a (case-insensitive) name to its WorkloadSpec.
func LookupWorkload(name string) (WorkloadSpec, bool) {
	i, ok := workloadRegistry.index[normalize(name)]
	if !ok {
		return WorkloadSpec{}, false
	}
	return workloadRegistry.specs[i], true
}

// ResolveWorkloads turns a CLI-style comma-separated name list into
// WorkloadSpecs; "all" (or empty) selects every registered workload.
func ResolveWorkloads(list string) ([]WorkloadSpec, error) {
	if k := normalize(list); k == "" || k == "all" {
		return Workloads(), nil
	}
	var specs []WorkloadSpec
	for _, name := range strings.Split(list, ",") {
		spec, ok := LookupWorkload(name)
		if !ok {
			sorted := WorkloadNames()
			sort.Strings(sorted)
			return nil, fmt.Errorf("lockreg: unknown workload %q (known: %s)", name, strings.Join(sorted, ", "))
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// kernelLocking builds the MutexLocking substrate kernel-sim workloads
// run the lock under test on: one mutex per VFS lock site, one thread
// context per worker. The Spread-placed contexts only cover setup calls
// (made before workers start); measured ops BindThread the harness's
// own per-worker Thread, so socket identity always follows the
// harness's actual placement policy.
func kernelLocking(spec Spec, env Env, threads int) *kernelsim.MutexLocking {
	e := env
	e.MaxThreads = threads
	place := numa.NewPlacement(e.Topology.OrDefault(), threads, numa.Spread)
	return kernelsim.NewMutexLocking(func() locks.Mutex { return spec.Build(e) }, threads, place.SocketOf)
}

func init() {
	RegisterWorkload(WorkloadSpec{
		Name: "spin",
		Description: "Minimal critical section: every thread increments one shared counter " +
			"under the lock — pure handover throughput, the paper's smallest contended case.",
		PaperRef: "Section 7.1.1 (the degenerate key-range-1 corner of the key-value microbenchmark)",
		Make: func(spec Spec, env Env) harness.Workload {
			return func(threads int) func(*locks.Thread, int) {
				e := env
				e.MaxThreads = threads
				m := spec.Build(e)
				var counter uint64
				return func(t *locks.Thread, op int) {
					m.Lock(t)
					counter++
					m.Unlock(t)
				}
			}
		},
	})
	RegisterWorkload(WorkloadSpec{
		Name: "lockref",
		Description: "Kernel-sim dentry refcounting: every thread runs lockref_get/put pairs " +
			"on one shared lockref, the dput/d_alloc contention point of Table 1.",
		PaperRef: "Section 7.2.2, Table 1 (lockref.lock)",
		Kernel:   true,
		Make: func(spec Spec, env Env) harness.Workload {
			return func(threads int) func(*locks.Thread, int) {
				lk := kernelLocking(spec, env, threads)
				ref := kernelsim.NewLockref(lk)
				return func(t *locks.Thread, op int) {
					lk.BindThread(t)
					ref.Get(t.ID)
					ref.Put(t.ID)
				}
			}
		},
	})
	RegisterWorkload(WorkloadSpec{
		Name: "dcache",
		Description: "Kernel-sim open1_threads: each thread opens and closes its own file in one " +
			"shared directory, hammering the directory dentry's lockref plus file_lock.",
		PaperRef: "Section 7.2.2, Figure 15 (open1_threads); Table 1 (lockref.lock, files_struct.file_lock)",
		Kernel:   true,
		Make: func(spec Spec, env Env) harness.Workload {
			return func(threads int) func(*locks.Thread, int) {
				lk := kernelLocking(spec, env, threads)
				k := kernelsim.NewKernelOn(lk)
				fs := k.NewFiles(threads*8 + 64)
				dir := k.LookupOrCreateDir(0, k.Root, "tmp")
				names := make([]string, threads)
				for i := range names {
					names[i] = fmt.Sprintf("file-%d", i)
				}
				return func(t *locks.Thread, op int) {
					lk.BindThread(t)
					fd, err := k.Open(t.ID, fs, dir, names[t.ID])
					if err != nil {
						panic(err)
					}
					if err := k.Close(t.ID, fs, fd); err != nil {
						panic(err)
					}
				}
			}
		},
	})
	RegisterWorkload(WorkloadSpec{
		Name: "files",
		Description: "Kernel-sim fd-table churn: every thread alloc/closes descriptors for one " +
			"pre-opened file under the shared files_struct.file_lock (__alloc_fd/__close_fd).",
		PaperRef: "Section 7.2.2, Table 1 (files_struct.file_lock)",
		Kernel:   true,
		Make: func(spec Spec, env Env) harness.Workload {
			return func(threads int) func(*locks.Thread, int) {
				lk := kernelLocking(spec, env, threads)
				k := kernelsim.NewKernelOn(lk)
				fs := k.NewFiles(threads*8 + 64)
				dir := k.LookupOrCreateDir(0, k.Root, "tmp")
				fd, err := k.Open(0, fs, dir, "shared")
				if err != nil {
					panic(err)
				}
				file, err := fs.Lookup(0, fd)
				if err != nil {
					panic(err)
				}
				return func(t *locks.Thread, op int) {
					lk.BindThread(t)
					fd, err := fs.AllocFD(t.ID, file)
					if err != nil {
						panic(err)
					}
					if _, err := fs.CloseFD(t.ID, fd); err != nil {
						panic(err)
					}
				}
			}
		},
	})
	RegisterWorkload(WorkloadSpec{
		Name: "posixlock",
		Description: "Kernel-sim lock2_threads: every thread fcntl-locks/unlocks its own disjoint " +
			"byte range of one shared file — fd lookups under file_lock, record locks under flc_lock.",
		PaperRef: "Section 7.2.2, Figure 15 (lock2_threads); Table 1 (flc_lock via posix_lock_inode)",
		Kernel:   true,
		Make: func(spec Spec, env Env) harness.Workload {
			return func(threads int) func(*locks.Thread, int) {
				lk := kernelLocking(spec, env, threads)
				k := kernelsim.NewKernelOn(lk)
				fs := k.NewFiles(threads*8 + 64)
				dir := k.LookupOrCreateDir(0, k.Root, "tmp")
				fd, err := k.Open(0, fs, dir, "shared")
				if err != nil {
					panic(err)
				}
				return func(t *locks.Thread, op int) {
					lk.BindThread(t)
					start := uint64(t.ID) * 64
					plk := kernelsim.PosixLock{Owner: t.ID, Type: kernelsim.WriteLock, Start: start, End: start + 8}
					if err := k.FcntlSetLk(t.ID, fs, fd, plk); err != nil {
						panic(err)
					}
					if err := k.FcntlUnlock(t.ID, fs, fd, t.ID, start, start+8); err != nil {
						panic(err)
					}
				}
			}
		},
	})
}
