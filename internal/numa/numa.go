// Package numa models the NUMA topology of the machines the paper
// evaluates on, and the assignment of worker threads to CPUs.
//
// The paper's results depend on two topological facts: (1) which socket a
// thread runs on determines whether its cache accesses to the lock and to
// shared data are local or remote, and (2) the OS spreads unpinned threads
// across sockets ("In our experiments, we do not pin threads to cores,
// relying on the OS to make its choices"), so an MCS queue under
// contention interleaves sockets.
//
// This host has no NUMA hardware visible to Go, so topology is virtual:
// a Topology maps virtual CPU ids to sockets, and a Placement assigns
// worker indices to virtual CPUs the way Linux's scheduler balances load —
// breadth-first across sockets, then across cores, then hyperthreads.
package numa

import "fmt"

// Topology describes a machine as sockets × cores × hardware threads.
type Topology struct {
	// Name identifies the preset (for reports).
	Name string
	// Sockets is the number of NUMA nodes.
	Sockets int
	// CoresPerSocket is the number of physical cores on each socket.
	CoresPerSocket int
	// ThreadsPerCore is the SMT width (2 on the paper's Xeons).
	ThreadsPerCore int
}

// TwoSocketXeonE5 is the paper's primary machine: two Intel Xeon
// E5-2699 v3 sockets, 18 hyperthreaded cores each, 72 logical CPUs.
func TwoSocketXeonE5() Topology {
	return Topology{Name: "2S-E5-2699v3", Sockets: 2, CoresPerSocket: 18, ThreadsPerCore: 2}
}

// FourSocketXeonE7 is the paper's validation machine: four Intel Xeon
// E7-8895 v3 sockets, 144 logical CPUs in total.
func FourSocketXeonE7() Topology {
	return Topology{Name: "4S-E7-8895v3", Sockets: 4, CoresPerSocket: 18, ThreadsPerCore: 2}
}

// NumCPUs returns the number of logical CPUs.
func (t Topology) NumCPUs() int {
	return t.Sockets * t.CoresPerSocket * t.ThreadsPerCore
}

// Validate reports whether the topology is well-formed.
func (t Topology) Validate() error {
	if !t.valid() {
		return fmt.Errorf("numa: invalid topology %+v", t)
	}
	return nil
}

func (t Topology) valid() bool {
	return t.Sockets > 0 && t.CoresPerSocket > 0 && t.ThreadsPerCore > 0
}

// OrDefault returns t, or TwoSocketXeonE5 when t fails Validate (the
// zero Topology included). Locks and the slot pools that hand them
// threads both resolve a caller's topology through it, so they agree
// on the socket count even when the caller set only part of it. Locks
// call it on every build, so it allocates nothing.
func (t Topology) OrDefault() Topology {
	if !t.valid() {
		return TwoSocketXeonE5()
	}
	return t
}

// SocketOf returns the socket that logical CPU cpu belongs to.
//
// CPU numbering follows Linux on the paper's Xeons: CPUs 0..S-1 are thread
// 0 of core 0 on sockets 0..S-1, then thread 0 of core 1, and so on;
// hyperthread siblings occupy the second half of the CPU space. The
// property that matters is cpu % Sockets == socket for the first-thread
// block, which interleaves consecutive CPU ids across sockets exactly the
// way consecutively-spawned unpinned threads land on a lightly loaded box.
func (t Topology) SocketOf(cpu int) int {
	if cpu < 0 || cpu >= t.NumCPUs() {
		panic(fmt.Sprintf("numa: CPU %d out of range [0,%d)", cpu, t.NumCPUs()))
	}
	return cpu % t.Sockets
}

// CoreOf returns the physical core index (globally numbered) of cpu.
// Hyperthread siblings share a core: cpu and cpu + NumCPUs()/2 map to the
// same core when ThreadsPerCore == 2.
func (t Topology) CoreOf(cpu int) int {
	if cpu < 0 || cpu >= t.NumCPUs() {
		panic(fmt.Sprintf("numa: CPU %d out of range [0,%d)", cpu, t.NumCPUs()))
	}
	coresTotal := t.Sockets * t.CoresPerSocket
	return cpu % coresTotal
}

// String implements fmt.Stringer.
func (t Topology) String() string {
	return fmt.Sprintf("%s: %d sockets × %d cores × %d threads = %d CPUs",
		t.Name, t.Sockets, t.CoresPerSocket, t.ThreadsPerCore, t.NumCPUs())
}

// Placement maps worker thread indices to virtual CPUs.
type Placement struct {
	topo Topology
	cpus []int // cpus[worker] = virtual CPU id
}

// Policy selects how workers are laid out on CPUs.
type Policy int

const (
	// Spread places consecutive workers on alternating sockets, filling
	// thread 0 of every core before any hyperthread — the load-balanced
	// layout an unpinned Linux box converges to, and the layout the
	// paper's experiments effectively ran under.
	Spread Policy = iota
	// Compact fills socket 0 completely before touching socket 1, the
	// layout a taskset-style pinning to one socket produces. Useful as an
	// ablation: NUMA-aware locks should show no benefit under Compact as
	// long as workers fit on one socket.
	Compact
)

// NewPlacement assigns workers CPUs under the given policy. Workers may
// outnumber the logical CPUs: the assignment wraps around, stacking
// worker w on the CPU of worker w mod NumCPUs — the oversubscribed
// regime, where an OS scheduler time-slices several threads per CPU.
// That regime is a first-class benchmark axis here (spinning waiters
// collapse there; parked waiters should not), so the placement layer
// models it instead of rejecting it.
func NewPlacement(topo Topology, workers int, policy Policy) *Placement {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	if workers < 0 {
		panic(fmt.Sprintf("numa: negative worker count %d", workers))
	}
	ncpu := topo.NumCPUs()
	p := &Placement{topo: topo, cpus: make([]int, workers)}
	switch policy {
	case Spread:
		// CPU ids are already socket-interleaved (SocketOf = cpu % Sockets),
		// so the identity assignment spreads breadth-first.
		for w := 0; w < workers; w++ {
			p.cpus[w] = w % ncpu
		}
	case Compact:
		// Walk socket by socket: all CPUs of socket 0 (its thread-0 block
		// then its hyperthread block), then socket 1, ...; extra workers
		// restart the walk (stacking onto socket 0 first, like a pinned
		// oversubscribed run would).
		perSocket := ncpu / topo.Sockets
		for idx := 0; idx < workers; idx++ {
			c := idx % ncpu
			p.cpus[idx] = c/perSocket + (c%perSocket)*topo.Sockets
		}
	default:
		panic(fmt.Sprintf("numa: unknown placement policy %d", policy))
	}
	return p
}

// Oversubscribed reports whether more workers are placed than the
// topology has logical CPUs.
func (p *Placement) Oversubscribed() bool { return len(p.cpus) > p.topo.NumCPUs() }

// CPUOf returns the virtual CPU assigned to worker w.
func (p *Placement) CPUOf(w int) int { return p.cpus[w] }

// SocketOf returns the socket worker w runs on.
func (p *Placement) SocketOf(w int) int { return p.topo.SocketOf(p.cpus[w]) }

// Workers returns the number of placed workers.
func (p *Placement) Workers() int { return len(p.cpus) }

// Topology returns the placement's topology.
func (p *Placement) Topology() Topology { return p.topo }

// SocketsUsed returns how many distinct sockets host at least one worker.
func (p *Placement) SocketsUsed() int {
	seen := make(map[int]bool, p.topo.Sockets)
	for w := range p.cpus {
		seen[p.SocketOf(w)] = true
	}
	return len(seen)
}

// PerSocketCounts returns the number of workers on each socket.
func (p *Placement) PerSocketCounts() []int {
	counts := make([]int, p.topo.Sockets)
	for w := range p.cpus {
		counts[p.SocketOf(w)]++
	}
	return counts
}
