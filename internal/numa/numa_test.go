package numa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPresetShapes(t *testing.T) {
	two := TwoSocketXeonE5()
	if got := two.NumCPUs(); got != 72 {
		t.Errorf("2-socket preset has %d CPUs, want 72", got)
	}
	four := FourSocketXeonE7()
	if got := four.NumCPUs(); got != 144 {
		t.Errorf("4-socket preset has %d CPUs, want 144", got)
	}
}

func TestValidate(t *testing.T) {
	if err := TwoSocketXeonE5().Validate(); err != nil {
		t.Errorf("preset invalid: %v", err)
	}
	bad := Topology{Sockets: 0, CoresPerSocket: 4, ThreadsPerCore: 1}
	if err := bad.Validate(); err == nil {
		t.Error("zero-socket topology validated")
	}
	for _, partial := range []Topology{{}, bad, {Sockets: 1}} {
		if got := partial.OrDefault(); got != TwoSocketXeonE5() {
			t.Errorf("%+v.OrDefault() = %+v, want the 2-socket preset", partial, got)
		}
	}
	if got := FourSocketXeonE7().OrDefault(); got != FourSocketXeonE7() {
		t.Errorf("a valid topology's OrDefault is %+v", got)
	}
}

func TestSocketOfInterleaves(t *testing.T) {
	topo := TwoSocketXeonE5()
	for cpu := 0; cpu < topo.NumCPUs(); cpu++ {
		if got, want := topo.SocketOf(cpu), cpu%2; got != want {
			t.Fatalf("SocketOf(%d) = %d, want %d", cpu, got, want)
		}
	}
}

func TestSocketOfPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SocketOf(-1) did not panic")
		}
	}()
	TwoSocketXeonE5().SocketOf(-1)
}

func TestCoreOfSiblings(t *testing.T) {
	topo := TwoSocketXeonE5()
	half := topo.NumCPUs() / 2
	for cpu := 0; cpu < half; cpu++ {
		if topo.CoreOf(cpu) != topo.CoreOf(cpu+half) {
			t.Fatalf("CPU %d and its hyperthread sibling %d map to cores %d and %d",
				cpu, cpu+half, topo.CoreOf(cpu), topo.CoreOf(cpu+half))
		}
	}
}

func TestSpreadAlternatesSockets(t *testing.T) {
	topo := TwoSocketXeonE5()
	p := NewPlacement(topo, 8, Spread)
	for w := 0; w < 8; w++ {
		if got, want := p.SocketOf(w), w%2; got != want {
			t.Fatalf("Spread: worker %d on socket %d, want %d", w, got, want)
		}
	}
}

func TestSpreadBalances(t *testing.T) {
	topo := FourSocketXeonE7()
	p := NewPlacement(topo, 142, Spread)
	counts := p.PerSocketCounts()
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Fatalf("Spread imbalance: per-socket counts %v", counts)
	}
}

func TestCompactFillsOneSocketFirst(t *testing.T) {
	topo := TwoSocketXeonE5()
	perSocket := topo.NumCPUs() / topo.Sockets // 36
	p := NewPlacement(topo, perSocket, Compact)
	for w := 0; w < perSocket; w++ {
		if got := p.SocketOf(w); got != 0 {
			t.Fatalf("Compact: worker %d on socket %d, want 0", w, got)
		}
	}
	if p.SocketsUsed() != 1 {
		t.Fatalf("Compact with %d workers uses %d sockets, want 1", perSocket, p.SocketsUsed())
	}
	// One more worker must spill to socket 1.
	p = NewPlacement(topo, perSocket+1, Compact)
	if got := p.SocketOf(perSocket); got != 1 {
		t.Fatalf("Compact spill: worker %d on socket %d, want 1", perSocket, got)
	}
}

func TestCompactAssignsDistinctCPUs(t *testing.T) {
	topo := FourSocketXeonE7()
	p := NewPlacement(topo, topo.NumCPUs(), Compact)
	seen := make(map[int]bool)
	for w := 0; w < p.Workers(); w++ {
		cpu := p.CPUOf(w)
		if seen[cpu] {
			t.Fatalf("CPU %d assigned twice", cpu)
		}
		seen[cpu] = true
	}
}

// TestPlacementOversubscriptionWraps: workers beyond the CPU count wrap
// around (worker w stacks on the CPU of worker w mod NumCPUs) under both
// policies — the oversubscribed benchmark regime, where several workers
// time-share one CPU.
func TestPlacementOversubscriptionWraps(t *testing.T) {
	topo := TwoSocketXeonE5()
	n := topo.NumCPUs()
	for _, pol := range []Policy{Spread, Compact} {
		p := NewPlacement(topo, 2*n+3, pol)
		if !p.Oversubscribed() {
			t.Fatalf("policy %d: %d workers on %d CPUs not reported oversubscribed", pol, 2*n+3, n)
		}
		for w := 0; w < p.Workers(); w++ {
			if got, want := p.CPUOf(w), p.CPUOf(w%n); got != want {
				t.Fatalf("policy %d: worker %d on CPU %d, want wrap to CPU %d", pol, w, got, want)
			}
			if s := p.SocketOf(w); s < 0 || s >= topo.Sockets {
				t.Fatalf("policy %d: worker %d on socket %d", pol, w, s)
			}
		}
	}
	if NewPlacement(topo, n, Spread).Oversubscribed() {
		t.Fatal("exactly-full placement reported oversubscribed")
	}
}

func TestSocketsUsedSingleWorker(t *testing.T) {
	p := NewPlacement(TwoSocketXeonE5(), 1, Spread)
	if p.SocketsUsed() != 1 {
		t.Fatalf("one worker uses %d sockets", p.SocketsUsed())
	}
}

func TestString(t *testing.T) {
	s := TwoSocketXeonE5().String()
	if !strings.Contains(s, "72 CPUs") {
		t.Errorf("String() = %q, missing CPU count", s)
	}
}

// Property: for any valid placement, every worker's socket is in range and
// consistent between CPUOf/SocketOf.
func TestPlacementConsistencyProperty(t *testing.T) {
	topo := FourSocketXeonE7()
	f := func(n uint8, compact bool) bool {
		workers := int(n) % (topo.NumCPUs() + 1)
		pol := Spread
		if compact {
			pol = Compact
		}
		p := NewPlacement(topo, workers, pol)
		for w := 0; w < workers; w++ {
			s := p.SocketOf(w)
			if s < 0 || s >= topo.Sockets {
				return false
			}
			if topo.SocketOf(p.CPUOf(w)) != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: per-socket counts always sum to the worker count.
func TestPerSocketCountsSumProperty(t *testing.T) {
	topo := TwoSocketXeonE5()
	f := func(n uint8) bool {
		workers := int(n) % (topo.NumCPUs() + 1)
		p := NewPlacement(topo, workers, Spread)
		sum := 0
		for _, c := range p.PerSocketCounts() {
			sum += c
		}
		return sum == workers
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
