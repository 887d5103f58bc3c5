package mesh

import "iter"

// This file implements the free-rectangle searches used by the
// allocation strategies. FirstFit, BestFit and LargestFree are the
// depth-1 calls of the 3D searches (volume.go). The first two run the
// window walk of walk.go on every fabric: the walk ANDs window rows in
// O(1) row operations per base row, and a window's fit mask
// (bitboard.go) has bit x set exactly where the whole w x l window
// based at x is free — bases enumerated by TrailingZeros64 instead of
// probed one run at a time.
// The run-table walks the masks replaced are kept in the tests as
// blockedUntil and its torus and 3D forms, the references checkWalk
// holds the walk to.

// FirstFit returns the first (row-major base order) free w x l sub-mesh,
// the classic contiguous first-fit search. On a torus the candidate
// space includes seam-crossing placements (the returned sub-mesh may
// have X2 >= W or Y2 >= L; resolve it with SplitWrap). On a 3D mesh a
// 2D request is a depth-1 cuboid anywhere in the volume.
func (m *Mesh) FirstFit(w, l int) (Submesh, bool) { return m.FirstFit3D(w, l, 1) }

// BestFit returns the free w x l sub-mesh whose placement touches the
// most busy-or-border processors along its perimeter (Zhu-style best
// fit: prefer corners and crevices, preserving large free regions).
// Perimeter positions off the mesh count as border; corners are not
// counted. The row-major-first candidate wins ties. On a torus the
// candidate space includes seam-crossing placements and the score
// counts busy neighbours only — a torus has no border to hug. On a 3D
// mesh the candidates are depth-1 cuboids over the whole volume,
// scored on all six faces. Every topology scores through the row
// kernel of bestfit.go.
func (m *Mesh) BestFit(w, l int) (Submesh, bool) { return m.BestFit3D(w, l, 1) }

// SlideFit returns the first entirely free w x l x h frame in the
// frame-sliding stride pattern (Chuang & Tzeng): candidate bases step by
// the frame sides from the origin — z outer, then y, then x — so a full
// scan costs O((W/w)·(L/l)·(H/h)) O(1) probes regardless of frame size.
// On a torus the stride pattern keeps going past the edges (the last
// frame of a row or column wraps around the seam instead of being
// dropped; the torus fabric is depth-1, so the z stride degenerates).
func (m *Mesh) SlideFit(w, l, h int) (Submesh, bool) {
	if w <= 0 || l <= 0 || h <= 0 || w > m.w || l > m.l || h > m.h {
		return Submesh{}, false
	}
	ymax, xmax := m.l-l, m.w-w
	if m.torus {
		ymax, xmax = m.l-1, m.w-1
	}
	zmax := m.h - h
	for z := 0; z <= zmax; z += h {
		for y := 0; y <= ymax; y += l {
			for x := 0; x <= xmax; x += w {
				s := SubAt3D(x, y, z, w, l, h)
				if m.SubFree(s) {
					return s, true
				}
			}
		}
	}
	return Submesh{}, false
}

// LargestFree returns the free sub-mesh of maximum area subject to
// width <= maxW, length <= maxL and area <= maxArea. Ties prefer the
// more nearly square candidate and then row-major base order. This is
// the search at the heart of GABL: the first piece is capped by the
// request's sides, later pieces by the previous piece's sides, and all
// pieces by the processors still owed. On a torus the candidate space
// includes seam-crossing placements; on a 3D mesh the candidates are
// depth-1 cuboids over the whole volume, in (z, y, x) base order.
//
// It is the depth-1 call of LargestFree3D, whose histogram sweep
// (histogram.go) the tests hold to the per-anchor scan it replaced,
// kept as largestFreeScan, result for result.
func (m *Mesh) LargestFree(maxW, maxL, maxArea int) (Submesh, bool) {
	return m.LargestFree3D(maxW, maxL, 1, maxArea)
}

// FreeSeq yields the free processors plane by plane in row-major
// order, extracting free runs from the bitboard words so busy spans of
// any length cost one TrailingZeros64 hop and free runs are emitted
// directly.
func (m *Mesh) FreeSeq() iter.Seq[Coord] {
	return func(yield func(Coord) bool) {
		for r := 0; r < m.rows(); r++ {
			words := m.rowWords(r)
			y, z := r%m.l, r/m.l
			for x := 0; x < m.w; {
				x0 := maskNextFree(words, x, m.w)
				if x0 >= m.w {
					break
				}
				x1 := maskNextBusy(words, x0, m.w)
				for ; x0 < x1; x0++ {
					if !yield(Coord{x0, y, z}) {
						return
					}
				}
				x = x1 + 1 // the processor ending the run is busy
			}
		}
	}
}
