package mesh

// Differential tests pinning the histogram-based LargestFree to the
// retained per-anchor scan (largestFreeScan / torusLargestFreeScan),
// result for result: same found flag, same base, same shape — which is
// the bit-identical-placements guarantee GABL and ANCA inherit.

import (
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// checkLargestAgainstScan compares the histogram search with the
// retained scan for one cap combination on the current occupancy.
func checkLargestAgainstScan(t *testing.T, m *Mesh, maxW, maxL, maxArea int) {
	t.Helper()
	got, okGot := m.LargestFree(maxW, maxL, maxArea)
	want, okWant := m.largestFreeScan(maxW, maxL, maxArea)
	if okGot != okWant || got != want {
		t.Fatalf("LargestFree(%d,%d,%d) torus=%v: histogram %v,%v; scan %v,%v\n%s",
			maxW, maxL, maxArea, m.torus, got, okGot, want, okWant, m)
	}
}

// capCombos yields cap triples spanning the space the allocators use:
// request-shaped, rotated, area-limited (GABL's remaining-owed cap),
// unconstrained, degenerate strips, and a random point.
func capCombos(m *Mesh, rng *rand.Rand) [][3]int {
	w, l := 1+rng.Intn(m.w), 1+rng.Intn(m.l)
	return [][3]int{
		{w, l, w * l},                     // request-shaped
		{l, w, w * l},                     // rotated (l may exceed W: clamps)
		{w, l, 1 + rng.Intn(w*l)},         // area-capped carve
		{m.w, m.l, m.w * m.l},             // unconstrained
		{m.w, m.l, 1 + rng.Intn(m.w*m.l)}, // area-only cap
		{1, m.l, m.l},                     // vertical strip
		{m.w, 1, m.w},                     // horizontal strip
		{1 + rng.Intn(m.w), 1 + rng.Intn(m.l), 1 + rng.Intn(m.w*m.l)}, // random
	}
}

// driveDifferential churns random rectangle allocations and releases on
// m, cross-checking every cap combination after each mutation batch.
func driveDifferential(t *testing.T, m *Mesh, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var live []Submesh
	for step := 0; step < steps; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			if err := m.ReleaseSub(live[k]); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			x, y := rng.Intn(m.w), rng.Intn(m.l)
			s := SubAt(x, y, 1+rng.Intn(min(4, m.w)), 1+rng.Intn(min(4, m.l)))
			if m.torus {
				for _, p := range m.SplitWrap(nil, s) {
					if !m.SubFree(p) {
						goto next
					}
				}
				for _, p := range m.SplitWrap(nil, s) {
					if err := m.AllocateSub(p); err != nil {
						t.Fatal(err)
					}
					live = append(live, p)
				}
			} else if m.InBounds(s.End()) && m.AllocateSub(s) == nil {
				live = append(live, s)
			}
		}
	next:
		for _, caps := range capCombos(m, rng) {
			checkLargestAgainstScan(t, m, caps[0], caps[1], caps[2])
		}
	}
}

func TestLargestFreeHistogramVsScanMesh(t *testing.T) {
	driveDifferential(t, New(16, 22), 101, 400)
	driveDifferential(t, New(9, 7), 103, 300) // wider than long
	driveDifferential(t, New(1, 13), 107, 80) // degenerate column
	driveDifferential(t, New(13, 1), 109, 80) // degenerate row
}

func TestLargestFreeHistogramVsScanTorus(t *testing.T) {
	driveDifferential(t, NewTorus(16, 22), 211, 400)
	driveDifferential(t, NewTorus(8, 9), 223, 300)
	driveDifferential(t, NewTorus(1, 6), 227, 60)
	driveDifferential(t, NewTorus(6, 1), 229, 60)
}

// Dense occupancies stress the many-small-rectangles regime where the
// monotonic stack actually works (the churn above stays fairly open).
func TestLargestFreeHistogramDenseScatter(t *testing.T) {
	for _, torus := range []bool{false, true} {
		m := New(12, 15)
		if torus {
			m = NewTorus(12, 15)
		}
		rng := rand.New(rand.NewSource(31))
		s := stats.NewStream(77)
		for trial := 0; trial < 60; trial++ {
			m.Reset()
			free := m.FreeNodes()
			perm := s.Perm(len(free))
			n := len(free) * (30 + rng.Intn(60)) / 100 // 30-90 % busy
			occupy := make([]Coord, 0, n)
			for _, i := range perm[:n] {
				occupy = append(occupy, free[i])
			}
			if err := m.Allocate(occupy); err != nil {
				t.Fatal(err)
			}
			for _, caps := range capCombos(m, rng) {
				checkLargestAgainstScan(t, m, caps[0], caps[1], caps[2])
			}
		}
	}
}

// Boundary cap values must agree with the scan's, including rejections.
func TestLargestFreeHistogramCapEdges(t *testing.T) {
	m := New(6, 5)
	if err := m.AllocateSub(Sub(2, 1, 3, 3)); err != nil {
		t.Fatal(err)
	}
	for _, caps := range [][3]int{
		{0, 5, 30}, {6, 0, 30}, {6, 5, 0}, // zero caps reject
		{-1, 5, 30}, {6, 5, -2}, // negative caps reject
		{100, 100, 10000}, // oversize caps clamp
		{1, 1, 1},         // single processor
		{6, 5, 1},         // area cap of one
		{2, 5, 7},         // non-divisible area cap
	} {
		checkLargestAgainstScan(t, m, caps[0], caps[1], caps[2])
	}
}

// The histogram search must not allocate once its scratch is warm: GABL
// calls it in the carving loop, and a per-call allocation there would
// show up in every simulation's profile.
func TestLargestFreeZeroAllocSteadyState(t *testing.T) {
	for _, torus := range []bool{false, true} {
		m := New(16, 22)
		if torus {
			m = NewTorus(16, 22)
		}
		s := stats.NewStream(9)
		free := m.FreeNodes()
		perm := s.Perm(len(free))
		occupy := make([]Coord, 0, 140)
		for _, i := range perm[:140] {
			occupy = append(occupy, free[i])
		}
		if err := m.Allocate(occupy); err != nil {
			t.Fatal(err)
		}
		m.LargestFree(10, 12, 80) // warm the scratch
		avg := testing.AllocsPerRun(100, func() {
			m.LargestFree(10, 12, 80)
			m.LargestFree(5, 4, 20)
			m.LargestFree(16, 22, 352)
		})
		if avg != 0 {
			t.Fatalf("torus=%v: LargestFree allocates %v per call batch, want 0", torus, avg)
		}
	}
}

// BenchmarkLargestFreeDense measures the sweep where the old scan was
// weakest: a large, heavily fragmented mesh with generous caps.
func BenchmarkLargestFreeDense(b *testing.B) {
	m := New(256, 256)
	s := stats.NewStream(3)
	free := m.FreeNodes()
	perm := s.Perm(len(free))
	occupy := make([]Coord, 0, len(free)/2)
	for _, i := range perm[:len(free)/2] {
		occupy = append(occupy, free[i])
	}
	if err := m.Allocate(occupy); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LargestFree(128, 128, 4096)
	}
}
