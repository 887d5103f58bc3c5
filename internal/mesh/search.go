package mesh

import (
	"iter"
	"math/bits"
)

// This file implements the free-rectangle searches used by the
// allocation strategies. Candidate bases come off the bitboard
// (bitboard.go): the window rows' free words AND together, the
// shift-AND fit mask narrows them to width w, and the surviving bits
// are exactly the bases where the whole w x l window is free —
// enumerated by TrailingZeros64 instead of probed one run at a time.
// The run-table walk the mask replaced is kept in the tests as
// blockedUntil, the reference they hold the mask enumeration to.

// CandidatesRow yields, left to right, every base x in row y where the
// w x l sub-mesh based at (x,y) is entirely free: the window rows'
// free words AND into one mask, the fit mask narrows it to width w,
// and the set bits are the bases. On a torus every grid position is a
// candidate base and the extent wraps across the seams — the ANDed row
// rotates into its doubled seam band first, so wrapped spans read
// contiguously, and only bits below W are bases (a bit in [W, 2W) is
// the same wrapped placement seen from its second copy).
func (m *Mesh) CandidatesRow(y, w, l int) iter.Seq[int] {
	return func(yield func(int) bool) {
		if m.torus {
			if w <= 0 || l <= 0 || w > m.w || l > m.l || y < 0 || y >= m.l {
				return
			}
			band := sizedScratch(&m.hist.bandMask, wordsPerRow(2*m.w))
			if !m.torusFitMaskInto(band, sizedScratch(&m.hist.rowAnd, m.wpr), y, w, l) {
				return
			}
			for i, v := range band {
				base := i << 6
				for v != 0 {
					x := base + bits.TrailingZeros64(v)
					if x >= m.w {
						return
					}
					if !yield(x) {
						return
					}
					v &= v - 1
				}
			}
			return
		}
		if w <= 0 || l <= 0 || y < 0 || y+l > m.l {
			return
		}
		mask := sizedScratch(&m.hist.winMask, m.wpr)
		if !m.planarFitMaskInto(mask, y, 0, w, l, 1) {
			return
		}
		for i, v := range mask {
			base := i << 6
			for v != 0 {
				if !yield(base + bits.TrailingZeros64(v)) {
					return
				}
				v &= v - 1
			}
		}
	}
}

// nextWindowRow advances the base row past every window that contains
// a row too narrow for width w (rowMax < w): given base y whose window
// rows (y..y+l-1) above the newly entered bottom row are known clean
// when fresh is false, it returns the next viable base row, or m.l when
// none remains. Amortized O(1) per base row.
func (m *Mesh) nextWindowRow(y, w, l int, fresh bool) int {
	for y+l <= m.l {
		if !fresh {
			// Only row y+l-1 is new to the window; the rest was
			// checked when the previous base row was cleared.
			if m.rowFitsWidth(y+l-1, w) {
				return y
			}
			y += l
			fresh = true
			continue
		}
		bad := -1
		for yy := y + l - 1; yy >= y; yy-- {
			if !m.rowFitsWidth(yy, w) {
				bad = yy
				break
			}
		}
		if bad < 0 {
			return y
		}
		y = bad + 1
	}
	return m.l
}

// FirstFit returns the first (row-major base order) free w x l sub-mesh,
// the classic contiguous first-fit search. On a torus the candidate
// space includes seam-crossing placements (the returned sub-mesh may
// have X2 >= W or Y2 >= L; resolve it with SplitWrap).
func (m *Mesh) FirstFit(w, l int) (Submesh, bool) {
	if m.torus {
		return m.torusFirstFit(w, l)
	}
	if w <= 0 || l <= 0 || w > m.w || l > m.l {
		return Submesh{}, false
	}
	if m.h > 1 {
		// On a 3D mesh a 2D request is a depth-1 cuboid anywhere in the
		// volume (volume.go).
		return m.firstFit3D(w, l, 1)
	}
	fresh := true
	for y := 0; ; y++ {
		y = m.nextWindowRow(y, w, l, fresh)
		if y+l > m.l {
			return Submesh{}, false
		}
		for x := range m.CandidatesRow(y, w, l) {
			return SubAt(x, y, w, l), true
		}
		fresh = false
	}
}

// BestFit returns the free w x l sub-mesh whose placement touches the
// most busy-or-border processors along its perimeter (Zhu-style best
// fit: prefer corners and crevices, preserving large free regions).
// Perimeter positions off the mesh count as border; corners are not
// counted. The row-major-first candidate wins ties. On a torus the
// candidate space includes seam-crossing placements and the score
// counts busy neighbours only — a torus has no border to hug. Every
// topology scores through the row kernel of bestfit.go.
func (m *Mesh) BestFit(w, l int) (Submesh, bool) {
	if m.torus {
		return m.torusBestFit(w, l)
	}
	if w <= 0 || l <= 0 || w > m.w || l > m.l {
		return Submesh{}, false
	}
	if m.h > 1 {
		// Depth-1 candidates over the whole volume, scored on all six
		// faces (volume.go).
		return m.BestFit3D(w, l, 1)
	}
	k := m.hist.scorer()
	k.reset(m, w, l, 1)
	mask := sizedScratch(&m.hist.winMask, m.wpr)
	fresh := true
	for y := 0; ; y++ {
		y = m.nextWindowRow(y, w, l, fresh)
		if y+l > m.l {
			break
		}
		if m.planarFitMaskInto(mask, y, 0, w, l, 1) && k.scoreRow(m, mask, y, 0) {
			break
		}
		fresh = false
	}
	return k.result()
}

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
// includes seam-crossing placements.
//
// The search runs as an O(W·L) histogram sweep (histogram.go); the
// per-anchor scan it replaced is kept in the tests as largestFreeScan
// — the reference they hold the sweep to, result for result.
func (m *Mesh) LargestFree(maxW, maxL, maxArea int) (Submesh, bool) {
	if maxW <= 0 || maxL <= 0 || maxArea <= 0 {
		return Submesh{}, false
	}
	if maxW > m.w {
		maxW = m.w
	}
	if maxL > m.l {
		maxL = m.l
	}
	if m.h > 1 {
		// A 2D constrained-largest on a 3D mesh is the depth-capped-at-1
		// volumetric search (volume.go).
		return m.largestFree3D(maxW, maxL, 1, maxArea)
	}
	return m.largestFreeHist(maxW, maxL, maxArea)
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
