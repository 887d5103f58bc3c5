package mesh

// This file is the 3D query and search layer of the occupancy index.
// The occupancy state is dimension-general (mesh.go): the bitboard
// words are per-(row, plane), and cuboid occupancy queries
// (SubFree/FreeInRect) are masked word compares and pop-counts over the
// cuboid's plane-rows (boxIs, boxFree). The searches here serve both
// depths — a planar search is the depth-1 case:
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
//   - LargestFree3D validates and clamps its caps and runs the one
//     constrained-largest engine of histogram.go, which sweeps the same
//     slabs for its MW(d, l) table and locates its winner with
//     firstFit3D. LargestFree is its maxH == 1 call on every fabric.
//     The naive volumetric scan is kept in the tests as
//     largestFreeScan3D — the reference the differential tests hold the
//     sweep to, result for result.

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
func spread3(w, l, h int) int { return max(w, l, h) - min(w, l, h) }

// LargestFree3D returns the free cuboid of maximum volume subject to
// width <= maxW, length <= maxL, height <= maxH and volume <= maxVol.
// Ties prefer the smaller side spread (spread3) and then the first
// base in (z, y, x) order, smaller heights then lengths winning at an
// equal base — exactly the candidate and tie rules of the reference
// largestFreeScan3D, which the differential tests hold it to. Every
// fabric runs the one engine of histogram.go, and LargestFree is its
// maxH == 1 call.
func (m *Mesh) LargestFree3D(maxW, maxL, maxH, maxVol int) (Submesh, bool) {
	if maxW <= 0 || maxL <= 0 || maxH <= 0 || maxVol <= 0 {
		return Submesh{}, false
	}
	return m.largestFree(min(maxW, m.w), min(maxL, m.l), min(maxH, m.h), maxVol)
}
