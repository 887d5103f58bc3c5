package mesh

// This file is the 3D query and search layer of the occupancy index.
// The occupancy state is dimension-general (mesh.go): the bitboard
// words are per-(row, plane), and cuboid occupancy queries
// (SubFree/FitsAt/BusyInRect/FreeInRect) are masked word compares and
// pop-counts over the cuboid's plane-rows (boxIs, boxFree). The
// searches here serve both depths — a planar search is the depth-1
// case:
//
//   - firstFit3D / bestFit3D scan candidate bases in (z, y, x) order.
//     For each base plane z they run one window walk (walk.go) over
//     the slab of planes z..z+h-1 (slabOf: plane z's own words when
//     h == 1, else the planes' word-wise AND), which yields the base
//     rows whose window holds a fit with their fit masks: firstFit3D
//     places the first mask's lowest base, and bestFit3D hands every
//     mask to the row kernel of bestfit.go, which scores only the
//     candidates that could beat the best. A slab row too narrow
//     zeroes the fit mask at every base over it, so the walk skips
//     only bases neither search acts on. The planar and torus FirstFit
//     and BestFit are their h == 1 calls;
//   - largestFree3D runs the planar maximal-rectangle-in-histogram
//     sweep — the same segment kernel, sweepRow — per projected plane
//     under a z-extent outer loop: for every (base plane, depth) pair
//     the planes are AND-projected and one sweep yields the widest
//     free cuboid per height, folded into the best capped
//     (volume, spread) and located with firstFit3D. The naive
//     volumetric scan is kept in the tests as largestFreeScan3D — the
//     reference the differential tests hold the sweep to, result for
//     result (mirroring largestFreeScan).
//
// On a depth-1 mesh LargestFree3D delegates to the planar LargestFree,
// so its probe phase and memoization are the planar ones.

// FitsAt3D reports whether the w x l x h cuboid based at (x, y, z)
// lies on the mesh and is entirely free: SubFree of that cuboid, as the
// planar FitsAt. The torus query layer is 2D-only, so on a torus any h
// other than 1 reports false and h == 1 defers to the wrap-aware
// FitsAt.
func (m *Mesh) FitsAt3D(x, y, z, w, l, h int) bool {
	if m.torus {
		return h == 1 && z == 0 && m.FitsAt(x, y, w, l)
	}
	return m.SubFree(SubAt3D(x, y, z, w, l, h))
}

// FirstFit3D returns the first (in (z, y, x) base order) free
// w x l x h cuboid — the contiguous first-fit search generalized with
// the depth axis. On a depth-1 mesh (including the torus, where h must
// be 1) it is exactly the planar FirstFit.
func (m *Mesh) FirstFit3D(w, l, h int) (Submesh, bool) {
	if w <= 0 || l <= 0 || h <= 0 || w > m.w || l > m.l || h > m.h {
		return Submesh{}, false
	}
	return m.firstFit3D(w, l, h)
}

// firstFit3D walks the candidate space plane window by plane window
// (walk.go) and places the lowest base of the first window row the
// walk yields. Arguments are positive and within the mesh sides.
func (m *Mesh) firstFit3D(w, l, h int) (Submesh, bool) {
	for z := 0; z+h <= m.h; z++ {
		k := m.newWalk(m.slabOf(z, h), w, l)
		if y, mask, ok := k.next(); ok {
			return SubAt3D(firstMaskBit(mask, m.w), y, z, w, l, h), true
		}
	}
	return Submesh{}, false
}

// BestFit3D returns the free w x l x h cuboid whose placement touches
// the most busy-or-border processors across its six faces (the planar
// boundary-pressure score generalized from perimeter edges to faces;
// face cells off the mesh count as border, edges and corners are not
// counted). The (z, y, x)-first candidate wins ties. On a depth-1 mesh
// it is exactly the planar BestFit.
func (m *Mesh) BestFit3D(w, l, h int) (Submesh, bool) {
	if w <= 0 || l <= 0 || h <= 0 || w > m.w || l > m.l || h > m.h {
		return Submesh{}, false
	}
	return m.bestFit3D(w, l, h)
}

// bestFit3D hands every window row the walks yield, in (z, y) order,
// to the scoring kernel, which skips the candidates that cannot beat
// the best so far and stops at the first candidate reaching the
// geometric ceiling. Arguments are positive and within the mesh sides.
func (m *Mesh) bestFit3D(w, l, h int) (Submesh, bool) {
	k := m.hist.scorer()
	k.reset(m, w, l, h)
	for z := 0; z+h <= m.h; z++ {
		wk := m.newWalk(m.slabOf(z, h), w, l)
		for y, mask, ok := wk.next(); ok; y, mask, ok = wk.next() {
			if k.scoreRow(m, mask, y, z) {
				return k.result()
			}
		}
	}
	return k.result()
}

// spread3 is the 3D shape tie-breaker: the spread between the longest
// and shortest side. On depth-1 shapes it ranks equal-volume
// candidates exactly as the planar |w−l| skew does (for a fixed
// product both are monotone in the longer side), so the 2D and 3D
// preferences agree where they overlap.
func spread3(w, l, h int) int {
	lo, hi := w, w
	if l < lo {
		lo = l
	}
	if l > hi {
		hi = l
	}
	if h < lo {
		lo = h
	}
	if h > hi {
		hi = h
	}
	return hi - lo
}

// LargestFree3D returns the free cuboid of maximum volume subject to
// width <= maxW, length <= maxL, height <= maxH and volume <= maxVol.
// Ties prefer the smaller side spread (spread3) and then the first
// base in (z, y, x) order, smaller heights then lengths winning at an
// equal base — exactly the candidate and tie rules of the reference
// largestFreeScan3D, which the differential tests hold it to. On a
// depth-1 mesh (and the torus) it is the planar LargestFree.
func (m *Mesh) LargestFree3D(maxW, maxL, maxH, maxVol int) (Submesh, bool) {
	if maxH <= 0 || maxVol <= 0 {
		return Submesh{}, false
	}
	if m.h == 1 {
		return m.LargestFree(maxW, maxL, maxVol)
	}
	if maxW <= 0 || maxL <= 0 {
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
	return m.largestFree3D(maxW, maxL, maxH, maxVol)
}

// largestFree3D is the sweep-backed LargestFree3D. Caps are positive
// and clamped; the mesh has depth > 1.
//
// Phase 1 computes MW(d, l) — the widest free cuboid of height >= l
// and depth >= d — by AND-projecting every (base plane, depth) pair
// into a planar occupancy and running the monotonic-stack
// maximal-rectangle sweep on it (sweepVolumeSerial). Phase 2 folds
// the capped (volume, spread) optimum over (d, l): every scan
// candidate at (d, l) has width at most fw(d, l) = min(MW(d, l), maxW,
// maxVol/(l·d)), and fw is itself achieved inside the maximal cuboid,
// so the fold is exact (the planar reduction of
// docs/occupancy-index.md §6, applied per (d, l) pair). Phase 3
// locates the winner: each shape achieving the optimum is placed with
// firstFit3D and the (z, y, x)-first base wins, smaller d then l at an
// equal base — the scan's own enumeration order.
func (m *Mesh) largestFree3D(maxW, maxL, maxH, maxVol int) (Submesh, bool) {
	mw := m.sweepVolumeSerial(maxL, maxH)

	// Phase 2: fold the capped (volume, spread) optimum over (d, l).
	bestVol, bestSpr := 0, 0
	for d := 1; d <= maxH; d++ {
		row := mw[d*(maxL+1):]
		for l := 1; l <= maxL; l++ {
			w := row[l]
			if w == 0 {
				break // suffix max in l: taller is never wider
			}
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
			if vol > bestVol || (vol == bestVol && spr < bestSpr) {
				bestVol, bestSpr = vol, spr
			}
		}
	}
	if bestVol == 0 {
		return Submesh{}, false
	}

	// Phase 3: the scan's winner is the (z, y, x)-first base admitting
	// a winning shape; d then l ascending keeps equal-base ties on the
	// scan's within-anchor order.
	var best Submesh
	found := false
	for d := 1; d <= maxH; d++ {
		row := mw[d*(maxL+1):]
		for l := 1; l <= maxL; l++ {
			w := row[l]
			if w > maxW {
				w = maxW
			}
			if w*l*d > maxVol {
				w = maxVol / (l * d)
			}
			if w == 0 || w*l*d != bestVol || spread3(w, l, d) != bestSpr {
				continue
			}
			s, ok := m.firstFit3D(w, l, d)
			if !ok {
				// MW(d, l) >= w guarantees a free w x l x d cuboid
				// exists; firstFit3D not finding one means the sweep
				// and the search disagree on occupancy.
				panic("mesh: 3D sweep found no base for its best shape")
			}
			if !found || s.Z1 < best.Z1 ||
				(s.Z1 == best.Z1 && (s.Y1 < best.Y1 ||
					(s.Y1 == best.Y1 && s.X1 < best.X1))) {
				best, found = s, true
			}
		}
	}
	return best, found
}

// sweepVolumeSerial computes the MW(d, l) table of largestFree3D on
// the mesh's scratch: every (base plane, depth) pair is AND-projected
// and swept (sweepProjectionInto), the per-shape records folded by
// max into mw[d*(maxL+1)+l]. The projection is a flat word-wise AND of
// the slab's bitboard words (free semantics: a projected column is
// free iff free in every plane of the slab) — W·L/64 word ops per
// deepening instead of a per-cell loop.
func (m *Mesh) sweepVolumeSerial(maxL, maxH int) []int {
	mw := sizedScratch(&m.hist.mw3, (maxH+1)*(maxL+1))
	clear(mw)
	proj := sizedScratch(&m.hist.proj, m.l*m.wpr)
	cand := sizedScratch(&m.hist.cand3, maxL+1)
	pw := m.l * m.wpr
	for z0 := 0; z0 < m.h; z0++ {
		dMax := maxH
		if rest := m.h - z0; rest < dMax {
			dMax = rest
		}
		for d := 1; d <= dMax; d++ {
			plane := m.freeW[(z0+d-1)*pw : (z0+d)*pw]
			if d == 1 {
				copy(proj, plane)
			} else {
				for i, v := range plane {
					proj[i] &= v
				}
			}
			m.hist.sweepProjectionInto(m.w, m.l, m.wpr, proj, cand)
			if cand[1] == 0 {
				break // projection fully busy: deeper extents only worse
			}
			row := mw[d*(maxL+1):]
			for l := 1; l <= maxL; l++ {
				if cand[l] > row[l] {
					row[l] = cand[l]
				}
			}
		}
	}
	return mw
}

// sweepProjectionInto is the projection sweep proper over a w x l free
// mask of wpr words per row: cand[l] is set to the width of the widest
// free rectangle of height exactly-or-more l in the projection, for l
// in 1..len(cand)-1 — the planar sweep's row kernel (sweepRow) run
// down the projected rows. Allocation-free once the scratch is sized.
func (hs *histScratch) sweepProjectionInto(w, l, wpr int, proj []uint64, cand []int) {
	hs.resetSweep(w)
	clear(cand)
	for y := 0; y < l; y++ {
		hs.sweepRow(proj[y*wpr:(y+1)*wpr], w, len(cand)-1, w, true, cand)
	}
	suffixMax(cand)
}
