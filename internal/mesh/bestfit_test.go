package mesh

// Edge-case differentials for the BestFit row kernel (bestfit.go): on
// widths around the word boundaries, full-side and ring-minus-one
// requests, 3D boxes touching the first and last planes, and pockets
// that reach the score ceiling mid-row, the search must return exactly
// what the naive per-cell scans return.

import (
	"math/rand"
	"testing"
)

// naiveBestFitAny is the naive referee for any fabric: the seed's
// planar scan, the wrapped torus scan, or the volumetric scan.
func naiveBestFitAny(m *Mesh, w, l, h int) (Submesh, bool) {
	switch {
	case m.torus:
		if h != 1 {
			return Submesh{}, false
		}
		return naiveTorusBestFit(m, w, l)
	case m.h > 1:
		return naiveBestFit3D(m, w, l, h)
	default:
		if h != 1 {
			return Submesh{}, false
		}
		return seedBestFit(m, w, l)
	}
}

// checkBestFit runs one request through the search and holds it to
// the naive scan.
func checkBestFit(t *testing.T, m *Mesh, w, l, h int) {
	t.Helper()
	want, wantOK := naiveBestFitAny(m, w, l, h)
	if got, ok := m.BestFit3D(w, l, h); got != want || ok != wantOK {
		t.Fatalf("BestFit3D(%d,%d,%d) = %v,%v; naive scan says %v,%v\n%s",
			w, l, h, got, ok, want, wantOK, m)
	}
}

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
		for _, p := range m.SplitWrap(nil, s) {
			if err := m.AllocateSub(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// occupyRandom marks cells busy one by one, in random blocks and single
// cells, until at least frac of the mesh is busy.
func occupyRandom(tb testing.TB, m *Mesh, rng *rand.Rand, frac float64) {
	tb.Helper()
	for tries := 0; float64(m.BusyCount()) < frac*float64(m.Size()) && tries < 1<<16; tries++ {
		w := 1 + rng.Intn(max(1, m.W()/4))
		l := 1 + rng.Intn(max(1, m.L()/4))
		h := 1 + rng.Intn(m.H())
		if rng.Intn(2) == 0 {
			w, l, h = 1, 1, 1
		}
		s := SubAt3D(rng.Intn(m.W()-w+1), rng.Intn(m.L()-l+1), rng.Intn(m.H()-h+1), w, l, h)
		if m.SubFree(s) {
			if err := m.AllocateSub(s); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestBestFitEdgeCases is the edge-case table: fabrics whose widths
// straddle the 64-column words, at three densities, each queried with
// random requests plus the requests that stress the kernel's faces —
// full width and length, a torus side one short of its ring (the left
// and right strips are one column, the top and bottom one row, counted
// twice), and 3D boxes reaching the first and last planes.
func TestBestFitEdgeCases(t *testing.T) {
	fabrics := []struct {
		name  string
		build func() *Mesh
	}{
		{"mesh1x1100", func() *Mesh { return New(1, 1100) }},
		{"mesh63x20", func() *Mesh { return New(63, 20) }},
		{"mesh64x20", func() *Mesh { return New(64, 20) }},
		{"mesh65x20", func() *Mesh { return New(65, 20) }},
		{"mesh128x12", func() *Mesh { return New(128, 12) }},
		{"mesh129x10", func() *Mesh { return New(129, 10) }},
		{"torus1x1100", func() *Mesh { return NewTorus(1, 1100) }},
		{"torus63x20", func() *Mesh { return NewTorus(63, 20) }},
		{"torus64x20", func() *Mesh { return NewTorus(64, 20) }},
		{"torus65x20", func() *Mesh { return NewTorus(65, 20) }},
		{"torus128x12", func() *Mesh { return NewTorus(128, 12) }},
		{"torus129x10", func() *Mesh { return NewTorus(129, 10) }},
		{"volume1x40x30", func() *Mesh { return New3D(1, 40, 30) }},
		{"volume63x6x3", func() *Mesh { return New3D(63, 6, 3) }},
		{"volume65x5x4", func() *Mesh { return New3D(65, 5, 4) }},
		{"volume129x4x2", func() *Mesh { return New3D(129, 4, 2) }},
	}
	queries := 12
	if testing.Short() {
		queries = 4
	}
	for fi, f := range fabrics {
		for di, frac := range []float64{0.1, 0.35, 0.65} {
			m := f.build()
			rng := rand.New(rand.NewSource(int64(100*fi + di)))
			occupyRandom(t, m, rng, frac)
			W, L, H := m.W(), m.L(), m.H()
			reqs := [][3]int{
				{W, L, 1}, {W, 1, 1}, {1, L, 1}, {W, L, H},
				{max(1, W-1), 2, 1}, {2, max(1, L-1), 1}, {max(1, W-1), max(1, L-1), 1},
				{min(W, 3), min(L, 2), H}, {min(W, 2), min(L, 3), max(1, H-1)},
			}
			for i := 0; i < queries; i++ {
				reqs = append(reqs, [3]int{1 + rng.Intn(W), 1 + rng.Intn(L), 1 + rng.Intn(H)})
			}
			for _, r := range reqs {
				checkBestFit(t, m, r[0], r[1], r[2])
			}
		}
	}
}

// TestBestFitEdgeCasesUnderChurn interleaves single-cell releases and
// block allocations with queries, so the kernel's column counts slide
// across rows whose occupancy changed between searches.
func TestBestFitEdgeCasesUnderChurn(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 15
	}
	for _, build := range []func() *Mesh{
		func() *Mesh { return New(65, 24) },
		func() *Mesh { return NewTorus(129, 9) },
		func() *Mesh { return New3D(64, 6, 4) },
	} {
		m := build()
		rng := rand.New(rand.NewSource(5))
		occupyRandom(t, m, rng, 0.3)
		for i := 0; i < steps; i++ {
			churnStep(t, m, rng)
			w := 1 + rng.Intn(m.W())
			l := 1 + rng.Intn(m.L())
			h := 1 + rng.Intn(m.H())
			if rng.Intn(3) == 0 {
				w, l = 1+rng.Intn(4), 1+rng.Intn(4)
			}
			checkBestFit(t, m, w, l, h)
		}
	}
}

// TestBestFitCeilingMidRow pins the early exit: a row whose candidates
// before and after an exactly fitting pocket score less, so the search
// must stop at the pocket — the ceiling — and return it, on every
// fabric.
func TestBestFitCeilingMidRow(t *testing.T) {
	// carve frees the given boxes on an otherwise fully busy mesh.
	carve := func(m *Mesh, boxes ...Submesh) *Mesh {
		if err := m.AllocateSub(Sub3D(0, 0, 0, m.W()-1, m.L()-1, m.H()-1)); err != nil {
			t.Fatal(err)
		}
		for _, b := range boxes {
			if err := m.ReleaseSub(b); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	cases := []struct {
		name    string
		m       *Mesh
		w, l, h int
		want    Submesh
	}{
		// Row 3 holds bases 0..2 (open to the right), the pocket at 70
		// and bases 100..102 (open to the left); rows above and below
		// are busy, so only the pocket scores 2(w+l).
		{"mesh", carve(New(130, 10), Sub(0, 3, 5, 5), Sub(70, 3, 72, 5), Sub(100, 3, 105, 5)),
			3, 3, 1, SubAt(70, 3, 3, 3)},
		// The torus pocket scores 2w+2l only where all four strips are
		// busy; the open strips either side score less.
		{"torus", carve(NewTorus(130, 10), Sub(0, 3, 5, 5), Sub(70, 3, 72, 5), Sub(100, 3, 105, 5)),
			3, 3, 1, SubAt(70, 3, 3, 3)},
		// A torus request one short of the ring in x: the left and right
		// strips are the same column, counted twice.
		{"torusRingMinusOne", carve(NewTorus(66, 6), Sub(0, 2, 64, 3)),
			65, 2, 1, SubAt(0, 2, 65, 2)},
		// A 3D pocket enclosed on all six faces, after open candidates
		// in the same base row.
		{"volume", carve(New3D(66, 6, 4), Sub3D(0, 2, 1, 4, 3, 2), Sub3D(40, 2, 1, 41, 3, 2), Sub3D(60, 2, 1, 65, 3, 2)),
			2, 2, 2, SubAt3D(40, 2, 1, 2, 2, 2)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkBestFit(t, c.m, c.w, c.l, c.h)
			got, ok := c.m.BestFit3D(c.w, c.l, c.h)
			if !ok || got != c.want {
				t.Fatalf("BestFit3D(%d,%d,%d) = %v,%v; want the pocket %v", c.w, c.l, c.h, got, ok, c.want)
			}
			if k := c.m.hist.fit; k.score != k.ceiling {
				t.Fatalf("pocket scored %d, want the ceiling %d", k.score, k.ceiling)
			}
		})
	}
}
