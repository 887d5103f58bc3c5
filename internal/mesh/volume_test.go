package mesh

// White-box cross-checks of the 3D occupancy layer: cuboid queries and
// all three volumetric searches are verified against naive volumetric
// scans under randomized churn, the per-plane sweep LargestFree3D is
// differentially tested against the retained naive scan, and the h = 1
// degenerate 3D mesh is pinned bit-for-bit to the 2D index.

import (
	"math/rand"
	"testing"
)

// naiveBoxBusy counts busy cells by walking the cuboid.
func naiveBoxBusy(m *Mesh, s Submesh) int {
	n := 0
	for z := s.Z1; z <= s.Z2; z++ {
		for y := s.Y1; y <= s.Y2; y++ {
			for x := s.X1; x <= s.X2; x++ {
				if !m.freeBitAt(m.rowIdx(y, z), x) {
					n++
				}
			}
		}
	}
	return n
}

// naiveFits3D walks every cell of the w x l x h cuboid based at
// (x, y, z).
func naiveFits3D(m *Mesh, x, y, z, w, l, h int) bool {
	if x < 0 || y < 0 || z < 0 || x+w > m.w || y+l > m.l || z+h > m.h {
		return false
	}
	return naiveBoxBusy(m, SubAt3D(x, y, z, w, l, h)) == 0
}

// naiveFirstFit3D scans every base in (z, y, x) order.
func naiveFirstFit3D(m *Mesh, w, l, h int) (Submesh, bool) {
	if w <= 0 || l <= 0 || h <= 0 || w > m.w || l > m.l || h > m.h {
		return Submesh{}, false
	}
	for z := 0; z+h <= m.h; z++ {
		for y := 0; y+l <= m.l; y++ {
			for x := 0; x+w <= m.w; x++ {
				if naiveFits3D(m, x, y, z, w, l, h) {
					return SubAt3D(x, y, z, w, l, h), true
				}
			}
		}
	}
	return Submesh{}, false
}

// naivePressure3D counts busy-or-border cells across the cuboid's six
// faces, edges and corners excluded, one cell at a time — the referee
// for the row kernel's 3D faces (bestfit.go).
func naivePressure3D(m *Mesh, s Submesh) int {
	score := 0
	cell := func(x, y, z int) {
		if x < 0 || x >= m.w || y < 0 || y >= m.l || z < 0 || z >= m.h {
			score++
			return
		}
		if !m.freeBitAt(m.rowIdx(y, z), x) {
			score++
		}
	}
	for z := s.Z1; z <= s.Z2; z++ {
		for x := s.X1; x <= s.X2; x++ {
			cell(x, s.Y1-1, z)
			cell(x, s.Y2+1, z)
		}
		for y := s.Y1; y <= s.Y2; y++ {
			cell(s.X1-1, y, z)
			cell(s.X2+1, y, z)
		}
	}
	for y := s.Y1; y <= s.Y2; y++ {
		for x := s.X1; x <= s.X2; x++ {
			cell(x, y, s.Z1-1)
			cell(x, y, s.Z2+1)
		}
	}
	return score
}

// naiveBestFit3D is the exhaustive scored scan in (z, y, x) order.
func naiveBestFit3D(m *Mesh, w, l, h int) (Submesh, bool) {
	if w <= 0 || l <= 0 || h <= 0 || w > m.w || l > m.l || h > m.h {
		return Submesh{}, false
	}
	best := Submesh{}
	bestScore := -1
	for z := 0; z+h <= m.h; z++ {
		for y := 0; y+l <= m.l; y++ {
			for x := 0; x+w <= m.w; x++ {
				if !naiveFits3D(m, x, y, z, w, l, h) {
					continue
				}
				s := SubAt3D(x, y, z, w, l, h)
				if score := naivePressure3D(m, s); score > bestScore {
					bestScore = score
					best = s
				}
			}
		}
	}
	if bestScore < 0 {
		return Submesh{}, false
	}
	return best, true
}

// naiveLargestFree3D is the unpruned volumetric constrained-largest
// scan: every anchor in (z, y, x) order, every depth and height with
// the anchor-maximal capped width, no upper-bound skips. It is
// independent of the retained largestFreeScan3D, which prunes.
func naiveLargestFree3D(m *Mesh, maxW, maxL, maxH, maxVol int) (Submesh, bool) {
	if maxW <= 0 || maxL <= 0 || maxH <= 0 || maxVol <= 0 {
		return Submesh{}, false
	}
	if maxW > m.w {
		maxW = m.w
	}
	if maxL > m.l {
		maxL = m.l
	}
	if maxH > m.h {
		maxH = m.h
	}
	run := naiveRightRun(busySnapshot(m), m.w, m.l*m.h)
	var (
		best      Submesh
		bestVol   int
		bestSpr   int
		bestFound bool
	)
	for z := 0; z < m.h; z++ {
		for y := 0; y < m.l; y++ {
			for x := 0; x < m.w; x++ {
				for d := 1; d <= maxH && z+d-1 < m.h; d++ {
					for l := 1; l <= maxL && y+l-1 < m.l; l++ {
						minRun := m.w
						for zz := z; zz < z+d; zz++ {
							for yy := y; yy < y+l; yy++ {
								if r := run[(zz*m.l+yy)*m.w+x]; r < minRun {
									minRun = r
								}
							}
						}
						if minRun == 0 {
							continue
						}
						w := minRun
						if w > maxW {
							w = maxW
						}
						if w*l*d > maxVol {
							w = maxVol / (l * d)
						}
						if w == 0 {
							continue
						}
						vol, spr := w*l*d, spread3(w, l, d)
						if vol > bestVol || (vol == bestVol && bestFound && spr < bestSpr) {
							best = SubAt3D(x, y, z, w, l, d)
							bestVol, bestSpr = vol, spr
							bestFound = true
						}
					}
				}
			}
		}
	}
	return best, bestFound
}

// checkQueries3D cross-checks the O(1) cuboid queries and all three
// volumetric searches against the naive scans on the current occupancy.
func checkQueries3D(t *testing.T, m *Mesh, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < 8; i++ {
		x1, y1, z1 := rng.Intn(m.w), rng.Intn(m.l), rng.Intn(m.h)
		s := Sub3D(x1, y1, z1,
			x1+rng.Intn(m.w-x1), y1+rng.Intn(m.l-y1), z1+rng.Intn(m.h-z1))
		want := naiveBoxBusy(m, s)
		if got := m.FreeInRect(s); got != s.Area()-want {
			t.Fatalf("FreeInRect(%v) = %d, scan says %d", s, got, s.Area()-want)
		}
		if got := m.SubFree(s); got != (want == 0) {
			t.Fatalf("SubFree(%v) = %v, scan says %v\n%s", s, got, want == 0, m)
		}
		// A 2D sub-mesh on a 3D mesh lies in plane 0.
		if p := SubAt(s.X1, s.Y1, s.W(), s.L()); m.SubFree(p) != (naiveBoxBusy(m, p) == 0) {
			t.Fatalf("SubFree(%v) = %v, plane-0 scan says %v", p, m.SubFree(p), naiveBoxBusy(m, p) == 0)
		}
	}
	w, l, h := 1+rng.Intn(m.w), 1+rng.Intn(m.l), 1+rng.Intn(m.h)
	gotFF, okFF := m.FirstFit3D(w, l, h)
	wantFF, wantOkFF := naiveFirstFit3D(m, w, l, h)
	if okFF != wantOkFF || gotFF != wantFF {
		t.Fatalf("FirstFit3D(%d,%d,%d) = %v,%v; naive scan says %v,%v\n%s",
			w, l, h, gotFF, okFF, wantFF, wantOkFF, m)
	}
	gotBF, okBF := m.BestFit3D(w, l, h)
	wantBF, wantOkBF := naiveBestFit3D(m, w, l, h)
	if okBF != wantOkBF || gotBF != wantBF {
		t.Fatalf("BestFit3D(%d,%d,%d) = %v,%v; naive scan says %v,%v\n%s",
			w, l, h, gotBF, okBF, wantBF, wantOkBF, m)
	}
	checkWalk(t, m, w, l, h, rng.Intn(m.h-h+1))
	for _, caps := range [][4]int{
		{w, l, h, w * l * h},
		{w, l, h, 1 + rng.Intn(w*l*h)},
		{m.w, m.l, m.h, m.Size()},
	} {
		gotLF, okLF := m.LargestFree3D(caps[0], caps[1], caps[2], caps[3])
		wantLF, wantOkLF := naiveLargestFree3D(m, caps[0], caps[1], caps[2], caps[3])
		if okLF != wantOkLF || gotLF != wantLF {
			t.Fatalf("LargestFree3D(%v) = %v,%v; naive scan says %v,%v\n%s",
				caps, gotLF, okLF, wantLF, wantOkLF, m)
		}
		// The retained pruned scan must agree too.
		refLF, refOkLF := m.largestFreeScan3D(caps[0], caps[1], caps[2], caps[3])
		if okLF != refOkLF || gotLF != refLF {
			t.Fatalf("LargestFree3D(%v) = %v,%v; retained scan says %v,%v\n%s",
				caps, gotLF, okLF, refLF, refOkLF, m)
		}
	}
}

// TestVolumeOracleBoxOps drives random cuboid allocate/release
// sequences on a 3D mesh through the model — including failed
// operations, which must not disturb the index — and checks the search
// results against the naive scans every 25 steps.
func TestVolumeOracleBoxOps(t *testing.T) {
	runBoxOps(t, New3D(8, 7, 5), 61, 1500, checkQueries3D)
}

// TestVolumeOracleCellOps drives random scattered (per-processor)
// allocate/release sequences and their doomed variants on a 3D mesh
// through the model, covering the per-cell bit flips across
// plane-rows.
func TestVolumeOracleCellOps(t *testing.T) {
	runCellOps(t, New3D(5, 7, 3), 67, 800, checkQueries3D) // odd-ish sides: no alignment accidents
}

// TestDepthOneMatches2DBitForBit drives one random mutation program on
// a 2D mesh and the h = 1 3D mesh: every table, query and search must
// agree exactly — the degenerate case the allocators rely on for
// bit-identical 2D placements.
func TestDepthOneMatches2DBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	fa, fb := newCellModel(New(12, 9)), newCellModel(New3D(12, 9, 1))
	a, b := fa.m, fb.m
	var live []Submesh
	for step := 0; step < 600; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			fa.releaseSub(t, live[k])
			fb.releaseSub(t, live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			x, y := rng.Intn(a.w), rng.Intn(a.l)
			s := SubAt(x, y, 1+rng.Intn(a.w-x), 1+rng.Intn(a.l-y))
			fb.allocSub(t, s)
			if fa.allocSub(t, s) == nil {
				live = append(live, s)
			}
		}
		if a.String() != b.String() || a.FreeCount() != b.FreeCount() {
			t.Fatalf("occupancy diverged at step %d:\n%s\nvs\n%s", step, a, b)
		}
		w, l := 1+rng.Intn(a.w), 1+rng.Intn(a.l)
		fa, oka := a.FirstFit(w, l)
		fb, okb := b.FirstFit3D(w, l, 1)
		if oka != okb || fa != fb {
			t.Fatalf("FirstFit(%d,%d) = %v,%v; FirstFit3D h=1 says %v,%v", w, l, fa, oka, fb, okb)
		}
		ba, oka := a.BestFit(w, l)
		bb, okb := b.BestFit3D(w, l, 1)
		if oka != okb || ba != bb {
			t.Fatalf("BestFit(%d,%d) = %v,%v; BestFit3D h=1 says %v,%v", w, l, ba, oka, bb, okb)
		}
		la, oka := a.LargestFree(w, l, w*l)
		lb, okb := b.LargestFree3D(w, l, 1, w*l)
		if oka != okb || la != lb {
			t.Fatalf("LargestFree(%d,%d) = %v,%v; LargestFree3D h=1 says %v,%v", w, l, la, oka, lb, okb)
		}
	}
}

// TestLargestFree3DDifferentialDense scatters a dense occupancy and
// holds the sweep to the retained scan and the unpruned naive over a
// grid of cap combinations, including volume-cap edges.
func TestLargestFree3DDifferentialDense(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	m := New3D(10, 9, 6)
	free := m.FreeNodes()
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	if err := m.Allocate(free[:len(free)*2/5]); err != nil {
		t.Fatal(err)
	}
	for _, caps := range [][4]int{
		{1, 1, 1, 1},
		{10, 9, 6, 540},
		{10, 9, 6, 7},
		{3, 3, 3, 27},
		{3, 3, 3, 11},
		{10, 1, 6, 60},
		{1, 9, 6, 54},
		{10, 9, 1, 90},
		{4, 7, 2, 56},
		{4, 7, 2, 19},
		{7, 4, 5, 1000},
	} {
		got, okG := m.LargestFree3D(caps[0], caps[1], caps[2], caps[3])
		ref, okR := m.largestFreeScan3D(caps[0], caps[1], caps[2], caps[3])
		naive, okN := naiveLargestFree3D(m, caps[0], caps[1], caps[2], caps[3])
		if okG != okR || got != ref {
			t.Fatalf("caps %v: sweep %v,%v vs retained scan %v,%v\n%s", caps, got, okG, ref, okR, m)
		}
		if okG != okN || got != naive {
			t.Fatalf("caps %v: sweep %v,%v vs naive %v,%v\n%s", caps, got, okG, naive, okN, m)
		}
		if okG {
			if !m.SubFree(got) {
				t.Fatalf("caps %v: winner %v not free", caps, got)
			}
			if got.W() > caps[0] || got.L() > caps[1] || got.H() > caps[2] || got.Area() > caps[3] {
				t.Fatalf("caps %v: winner %v violates caps", caps, got)
			}
		}
	}
}

// TestLargestFree3DZeroAllocSteadyState pins the warm per-call heap
// cost of the volumetric constrained-largest search at zero, matching
// the planar guarantee of TestWarmOpsAllocateNothing.
func TestLargestFree3DZeroAllocSteadyState(t *testing.T) {
	m := New3D(32, 32, 8)
	free := m.FreeNodes()
	rng := rand.New(rand.NewSource(79))
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	if err := m.Allocate(free[:len(free)/3]); err != nil {
		t.Fatal(err)
	}
	m.LargestFree3D(16, 16, 4, 512) // warm the scratch
	allocs := testing.AllocsPerRun(50, func() {
		if _, ok := m.LargestFree3D(16, 16, 4, 512); !ok {
			t.Fatal("no cuboid found")
		}
	})
	if allocs != 0 {
		t.Fatalf("LargestFree3D allocates %v per call in steady state, want 0", allocs)
	}
}

// TestFirstFit3DBasics pins the (z, y, x) base order and plane pruning
// on a hand-built occupancy.
func TestFirstFit3DBasics(t *testing.T) {
	m := New3D(4, 3, 3)
	// Fill plane 0 entirely: candidates must move to plane 1.
	if err := m.AllocateSub(Sub3D(0, 0, 0, 3, 2, 0)); err != nil {
		t.Fatal(err)
	}
	s, ok := m.FirstFit3D(2, 2, 1)
	if !ok || s != SubAt3D(0, 0, 1, 2, 2, 1) {
		t.Fatalf("FirstFit3D(2,2,1) = %v,%v, want base (0,0,1)", s, ok)
	}
	// A 2-deep request cannot include plane 0.
	s, ok = m.FirstFit3D(2, 2, 2)
	if !ok || s.Z1 != 1 {
		t.Fatalf("FirstFit3D(2,2,2) = %v,%v, want base plane 1", s, ok)
	}
	// Depth exceeding the mesh is rejected.
	if _, ok := m.FirstFit3D(1, 1, 4); ok {
		t.Fatal("FirstFit3D accepted h > H")
	}
	// The planar FirstFit on a 3D mesh searches all planes.
	s, ok = m.FirstFit(4, 3)
	if !ok || s != SubAt3D(0, 0, 1, 4, 3, 1) {
		t.Fatalf("FirstFit(4,3) on 3D mesh = %v,%v, want plane 1", s, ok)
	}
}

// TestBestFit3DPrefersCorner pins the face-pressure score: on an empty
// cube a corner placement touches three border faces and must win.
func TestBestFit3DPrefersCorner(t *testing.T) {
	m := New3D(5, 5, 5)
	s, ok := m.BestFit3D(2, 2, 2)
	if !ok {
		t.Fatal("BestFit3D found nothing on an empty mesh")
	}
	if s != SubAt3D(0, 0, 0, 2, 2, 2) {
		t.Fatalf("BestFit3D(2,2,2) = %v, want the origin corner", s)
	}
}
