package mesh

// Edge-case differentials for the BestFit row kernel (bestfit.go): on
// widths around the word boundaries, full-side and ring-minus-one
// requests, 3D boxes touching the first and last planes, pockets that
// reach the score ceiling mid-row, and every edge where the kernel's
// word bound, run ends or zero-score filter could skip a winner, the
// search must return exactly what the naive per-cell scans return.

import (
	"math/bits"
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
// twice), and 3D boxes reaching the first and last planes — and every
// request of sides up to 4 at depth 1, whose candidates the kernel's
// bound and zero-score filter prune hardest (on 3D meshes their z
// faces score too).
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
			for w := 1; w <= min(W, 4); w++ {
				for l := 1; l <= min(L, 4); l++ {
					reqs = append(reqs, [3]int{w, l, 1})
				}
			}
			for _, r := range reqs {
				checkBestFit(t, m, r[0], r[1], r[2])
			}
		}
	}
}

// TestBestFitEdgeCasesUnderChurn interleaves single-cell releases and
// block allocations with queries, so each search reads rows whose
// occupancy changed since the last one, and a zero-score filter kept
// from the previous search would be stale.
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

// occupy marks the cells of the (possibly seam-crossing, on a torus)
// box s busy where they are free.
func occupy(t *testing.T, m *Mesh, s Submesh) {
	t.Helper()
	for _, p := range m.SplitWrap(nil, s) {
		for _, c := range p.Nodes() {
			if !m.Busy(c) {
				if err := m.Allocate([]Coord{c}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// cup makes the base at (x, y) of a w x l request a cup: its faces
// below and above are busy, and so is its left side (closedLeft) or its
// right side. It scores l + 2w, its open side leads to a fitting base,
// and its closed side makes it a run end of the fit mask. Columns and
// rows wrap on a torus.
func cup(t *testing.T, m *Mesh, x, y, w, l int, closedLeft bool) {
	t.Helper()
	side := x + w
	if closedLeft {
		side = x - 1
	}
	occupy(t, m, SubAt((side+m.W())%m.W(), y, 1, l))
	occupy(t, m, SubAt(x, (y+m.L()-1)%m.L(), w, 1))
	occupy(t, m, SubAt(x, (y+l)%m.L(), w, 1))
}

// TestBestFitRunEndsAtWordEdges pins the run ends the scorer reads
// across word edges and the torus seam: a cup based where a run of the
// fit mask ends at bit 63, starts at bit 64, ends at bit 127 or starts
// at bit 128, and on tori of one and two words a cup at x = 0 closed on
// the left (by column W-1) and one at x = W-1 closed on the right (by
// column w-1, across the seam). A twin cup in a later row scores the
// same, so only the edge cup's exact score keeps it the first maximum.
func TestBestFitRunEndsAtWordEdges(t *testing.T) {
	type edge struct {
		x          int
		closedLeft bool
	}
	word1 := []edge{{63, false}, {64, true}}
	word2 := append(word1, edge{127, false}, edge{128, true})
	for _, f := range []struct {
		W     int
		torus bool
		edges []edge
	}{
		{130, false, word1}, {192, false, word2},
		{40, true, nil}, {64, true, nil}, {65, true, nil}, {128, true, nil},
	} {
		if f.torus {
			f.edges = []edge{{0, true}, {f.W - 1, false}}
		}
		for w := 1; w <= 4; w++ {
			for l := 1; l <= 3; l++ {
				for _, e := range f.edges {
					// The cups sit clear of the border and of each other.
					m := New(f.W, 2*l+11)
					if f.torus {
						m = NewTorus(f.W, 2*l+11)
					}
					cup(t, m, e.x, 3, w, l, e.closedLeft)
					cup(t, m, 20, l+7, w, l, e.closedLeft) // the twin, inside a word
					checkBestFit(t, m, w, l, 1)
					if got, _ := m.BestFit(w, l); got != SubAt(e.x, 3, w, l) {
						t.Fatalf("W=%d torus=%v BestFit(%d,%d) = %v; want the edge cup at x = %d\n%s",
							f.W, f.torus, w, l, got, e.x, m)
					}
				}
			}
		}
	}
}

// TestBestFitZFacesEveryPlane pins the z faces of depth-1 requests on
// 3D meshes, at every plane z: the base at (5, 5, z) is free on all
// four in-plane sides, so neither a run end nor a busy y face flags it,
// and only the busy blocks under and over it in planes z-1 and z+1 (or
// the border) make it the best. The planes beyond are full, so no base
// there ties it. A scorer that filters it as a zero-score base, as the
// planar filter would, returns another base.
func TestBestFitZFacesEveryPlane(t *testing.T) {
	for _, dims := range [][3]int{{16, 16, 3}, {16, 16, 5}, {70, 12, 4}} {
		for z := 0; z < dims[2]; z++ {
			m := New3D(dims[0], dims[1], dims[2])
			for zz := 0; zz < m.H(); zz++ {
				switch {
				case zz == z-1 || zz == z+1:
					occupy(t, m, SubAt3D(5, 5, zz, 5, 5, 1))
				case zz != z:
					occupy(t, m, SubAt3D(0, 0, zz, m.W(), m.L(), 1))
				}
			}
			checkBestFit(t, m, 5, 5, 1)
			if got, _ := m.BestFit3D(5, 5, 1); got != SubAt3D(5, 5, z, 5, 5, 1) {
				t.Fatalf("%v BestFit3D(5,5,1) = %v; want the base between the blocks at z = %d", dims, got, z)
			}
		}
	}
}

// TestBestFitFirstCandidateScoresZero pins a search whose first
// candidate scores 0: on an otherwise empty torus every base touching
// the one busy cell scores 1, so the first of them — the one whose top
// face touches it first in row order — must replace base 0, and a skip
// rule one looser than "bound at most the best" would keep base 0.
func TestBestFitFirstCandidateScoresZero(t *testing.T) {
	for _, W := range []int{40, 64, 65, 130} {
		for _, r := range [][2]int{{1, 1}, {3, 2}, {2, 3}} {
			w, l := r[0], r[1]
			m := NewTorus(W, 12)
			occupy(t, m, SubAt(W/2, 6, 1, 1))
			checkBestFit(t, m, w, l, 1)
			if got, want := m.hist.fit.best, SubAt(W/2-w+1, 6-l, w, l); got != want {
				t.Fatalf("torus%d BestFit(%d,%d) = %v; want %v, the first base touching the busy cell", W, w, l, got, want)
			}
		}
	}
}

// TestBestFitScoresFewCandidates is the count gate on the scorer's
// skips. On empty fabrics every base but the first is bounded out or
// filtered as a zero score, whatever the request's shape, so a search
// scores at most one word's worth of candidates. On perfbench's
// best_fit_ns.512 layout it scores under a tenth of the bases the walk
// yields.
func TestBestFitScoresFewCandidates(t *testing.T) {
	for _, m := range []*Mesh{New(128, 128), NewTorus(64, 64), NewTorus(128, 128)} {
		for _, r := range [][2]int{{1, 1}, {6, 5}, {4, 8}, {3, 17}, {64, 2}, {min(65, m.W()), 3}, {m.W(), 4}, {5, m.L()}} {
			m.BestFit(r[0], r[1])
			if n := m.hist.fit.scored; n > 64 {
				t.Errorf("%dx%d torus=%v BestFit(%d,%d) scored %d candidates; want at most 64",
					m.W(), m.L(), m.Torus(), r[0], r[1], n)
			}
		}
	}
	m := fragmentHalf(t, New(512, 512), 64)
	m.BestFit(16, 16)
	yielded := 0
	wk := m.newWalk(m.slabOf(0, 1), 16, 16)
	for _, mask, ok := wk.next(); ok; _, mask, ok = wk.next() {
		for _, v := range mask {
			yielded += bits.OnesCount64(v)
		}
	}
	if n := m.hist.fit.scored; 10*n > yielded {
		t.Errorf("BestFit(16,16) on the half-full 512x512 mesh scored %d of the %d bases the walk yields; want at most a tenth", n, yielded)
	}
}
