package mesh

// Determinism matrix for the sharded search executor: on randomized
// occupancy churn, every Sharded search must return exactly what the
// serial scan returns — same sub-mesh, same ok — across topologies,
// dimensions and worker counts, and the steady-state fan-out path must
// allocate nothing.

import (
	"math/rand"
	"testing"
)

// shardWorkerCounts is the worker axis of the determinism matrix: the
// serial-fallback executor, the even splits, a count that divides
// nothing, and more workers than many of the scans have stripes.
var shardWorkerCounts = []int{1, 2, 7, 16}

// churnStep mutates m one step: a random free sub-mesh allocation or a
// random single-cell release of a busy processor, keeping the
// occupancy mixed.
func churnStep(t *testing.T, m *Mesh, rng *rand.Rand) {
	t.Helper()
	if rng.Intn(3) > 0 || m.FreeCount() == 0 {
		// Release pressure: clear a random busy cell if any.
		if m.BusyCount() > 0 {
			for tries := 0; tries < 64; tries++ {
				c := Coord{rng.Intn(m.W()), rng.Intn(m.L()), rng.Intn(m.H())}
				if m.Busy(c) {
					if err := m.Release([]Coord{c}); err != nil {
						t.Fatal(err)
					}
					return
				}
			}
		}
	}
	w := 1 + rng.Intn(max(1, m.W()/3))
	l := 1 + rng.Intn(max(1, m.L()/3))
	h := 1 + rng.Intn(m.H())
	if s, ok := m.FirstFit3D(w, l, h); ok {
		for _, p := range m.SplitWrap(s) {
			if err := m.AllocateSub(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// compareSearches runs every search serially and through sh and
// demands identical results.
func compareSearches(t *testing.T, m *Mesh, sh *Sharded, w, l, h int) {
	t.Helper()
	type result struct {
		s  Submesh
		ok bool
	}
	checks := []struct {
		name         string
		serial, shrd result
	}{
		{"FirstFit", mk(m.FirstFit3D(w, l, h)), mk(sh.FirstFit(w, l, h))},
		{"BestFit", mk(m.BestFit3D(w, l, h)), mk(sh.BestFit(w, l, h))},
		{"FrameSlide", mk(m.SlideFit(w, l, h)), mk(sh.FrameSlide(w, l, h))},
		{"LargestFree", mk(m.LargestFree3D(w, l, h, w*l*h)),
			mk(sh.LargestFree(w, l, h, w*l*h))},
		{"LargestFreeLoose", mk(m.LargestFree3D(m.W(), m.L(), m.H(), m.Size())),
			mk(sh.LargestFree(m.W(), m.L(), m.H(), m.Size()))},
	}
	for _, c := range checks {
		if c.serial != c.shrd {
			t.Fatalf("%s(%dx%dx%d) workers=%d: serial %+v, sharded %+v",
				c.name, w, l, h, sh.Workers(), c.serial, c.shrd)
		}
	}
}

// mk pairs a search result for comparison.
func mk(s Submesh, ok bool) struct {
	s  Submesh
	ok bool
} {
	return struct {
		s  Submesh
		ok bool
	}{s, ok}
}

// runShardedMatrix churns a mesh and compares serial and sharded
// searches after every few steps, for every worker count.
func runShardedMatrix(t *testing.T, build func() *Mesh, steps int) {
	t.Helper()
	if testing.Short() {
		steps = steps / 4
	}
	for _, workers := range shardWorkerCounts {
		m := build()
		sh := NewSharded(m, workers)
		rng := rand.New(rand.NewSource(int64(97 + workers)))
		for i := 0; i < steps; i++ {
			churnStep(t, m, rng)
			w := 1 + rng.Intn(m.W())
			l := 1 + rng.Intn(m.L())
			h := 1 + rng.Intn(m.H())
			compareSearches(t, m, sh, w, l, h)
		}
		sh.Close()
	}
}

func TestShardedMatchesSerial2D(t *testing.T) {
	runShardedMatrix(t, func() *Mesh { return New(48, 40) }, 120)
}

func TestShardedMatchesSerialTorus(t *testing.T) {
	runShardedMatrix(t, func() *Mesh { return NewTorus(40, 36) }, 120)
}

func TestShardedMatchesSerial3D(t *testing.T) {
	runShardedMatrix(t, func() *Mesh { return New3D(16, 16, 8) }, 120)
}

// TestShardedGateSmallMesh pins the serial fallback: a mesh below the
// fan-out gate must answer identically (and never start workers).
func TestShardedGateSmallMesh(t *testing.T) {
	m := New(8, 8)
	sh := NewSharded(m, 4)
	defer sh.Close()
	if err := m.AllocateSub(SubAt(2, 2, 3, 3)); err != nil {
		t.Fatal(err)
	}
	compareSearches(t, m, sh, 4, 4, 1)
	if sh.started {
		t.Fatal("sub-gate mesh started pool workers")
	}
}

// TestShardedSearchUnderChurnKeepsIndexSound interleaves sharded
// searches with the oracle table checks: the executor must never
// perturb the occupancy index.
func TestShardedSearchUnderChurnKeepsIndexSound(t *testing.T) {
	m := New(40, 40)
	sh := NewSharded(m, 7)
	defer sh.Close()
	rng := rand.New(rand.NewSource(7))
	steps := 80
	if testing.Short() {
		steps = 20
	}
	for i := 0; i < steps; i++ {
		churnStep(t, m, rng)
		sh.FirstFit(3, 3, 1)
		sh.BestFit(2, 5, 1)
		sh.LargestFree(20, 20, 1, 200)
		checkTables(t, m)
	}
}

// TestShardedZeroAllocSteadyState pins the fan-out path at zero
// allocations per search once the per-worker scratch is warm.
func TestShardedZeroAllocSteadyState(t *testing.T) {
	mk := func(m *Mesh) *Mesh {
		rng := rand.New(rand.NewSource(11))
		free := m.FreeNodes()
		occupy := make([]Coord, 0, len(free)*2/5)
		for _, i := range rng.Perm(len(free))[:len(free)*2/5] {
			occupy = append(occupy, free[i])
		}
		if err := m.Allocate(occupy); err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name string
		m    *Mesh
	}{
		{"mesh", mk(New(64, 64))},
		{"torus", mk(NewTorus(64, 64))},
		{"volume", mk(New3D(32, 32, 8))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sh := NewSharded(c.m, 4)
			defer sh.Close()
			run := func() {
				sh.FirstFit(5, 5, 1)
				sh.BestFit(4, 6, 1)
				if c.m.H() > 1 {
					sh.BestFit(4, 6, 2)
				}
				sh.LargestFree(32, 32, c.m.H(), 512)
				sh.FrameSlide(5, 5, 1)
			}
			run() // warm the scratch and the pool
			if avg := testing.AllocsPerRun(50, run); avg != 0 {
				t.Fatalf("sharded steady state allocates %.1f per round, want 0", avg)
			}
		})
	}
}

// TestShardedCloseIdempotent ensures double Close is safe and that a
// never-started executor closes cleanly.
func TestShardedCloseIdempotent(t *testing.T) {
	sh := NewSharded(New(16, 16), 3)
	sh.Close()
	sh.Close()
	sh2 := NewSharded(New(64, 64), 2)
	sh2.FirstFit(2, 2, 1) // starts the pool
	sh2.Close()
	sh2.Close()
}

// TestSlideFitMatchesFrameSlidingSemantics pins the stride pattern:
// frames step by the request sides and the first free frame in
// (z, y, x) stride order wins.
func TestSlideFitMatchesFrameSlidingSemantics(t *testing.T) {
	m := New(8, 8)
	if err := m.AllocateSub(SubAt(0, 0, 4, 4)); err != nil {
		t.Fatal(err)
	}
	s, ok := m.SlideFit(4, 4, 1)
	if !ok || s != SubAt(4, 0, 4, 4) {
		t.Fatalf("SlideFit(4,4) = %v, %v; want the (4,0) frame", s, ok)
	}
	if _, ok := m.SlideFit(5, 5, 1); ok {
		t.Fatal("SlideFit(5,5) found a frame on the stride grid; none exists")
	}
}
