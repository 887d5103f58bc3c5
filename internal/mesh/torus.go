package mesh

// This file is the torus query layer of the occupancy index. The
// occupancy state (the bitboard words — see Mesh) is planar and
// maintained identically for both topologies; wrap-around semantics
// are resolved at query time:
//
//   - a rectangle whose extent crosses the x or y seam is split into
//     two (one seam) or four (both seams) planar rectangles, each
//     probed or pop-counted off the words by the planar box kernels
//     (wrapPieces, torusSubFree, wrapBusy);
//   - the searches' row pruning asks whether a row holds a wrapped free
//     run of the width (torusRowFits): a planar run, or the trailing run
//     (a free run reaching the x = W-1 edge) carried across the seam
//     into the leading run;
//   - a window's candidate bases are its rows' AND (windowMaskInto, its
//     rows wrapping past L) rotated into the doubled seam band and
//     narrowed by width (torusFitMaskInto).
//
// Keeping the state planar means every mutation path and invariant of
// the planar index carries over unchanged, and mesh-mode behaviour
// cannot drift: the torus branches are gated on m.torus.

// NewTorus returns an empty w x l torus mesh: occupancy queries and
// searches treat the x and y extents as rings, so sub-meshes may cross
// the x = W-1 -> 0 and y = L-1 -> 0 wrap-around seams. Mutations
// (Allocate, AllocateSub, Release, ReleaseSub) remain planar: a
// seam-crossing placement is committed as its SplitWrap pieces.
func NewTorus(w, l int) *Mesh {
	m := New(w, l)
	m.torus = true
	return m
}

// Torus reports whether the mesh wraps around in both dimensions.
func (m *Mesh) Torus() bool { return m.torus }

// torusRowFits reports whether row y holds a free run of at least w
// cells (1 <= w <= W) on the ring: a planar run (rowFitsWidth), or,
// when the trailing edge is free, the trailing run plus the leading
// run it continues into across the seam. A row that is not fully free
// has a busy cell, so the sum never exceeds W.
func (m *Mesh) torusRowFits(y, w int) bool {
	if m.rowFitsWidth(m.rowWords(y), w) {
		return true
	}
	if !m.freeBitAt(y, m.w-1) {
		return false
	}
	words := m.rowWords(y)
	return m.w-1-maskPrevBusy(words, m.w-1)+maskNextBusy(words, 0, m.w) >= w
}

// wrapValid reports whether s is a well-formed sub-mesh of the torus:
// base on the mesh, extents no larger than the rings. The end may
// exceed the planar bounds — X2 >= W (or Y2 >= L) encodes a
// seam-crossing extent, interpreted modulo the ring size.
func (m *Mesh) wrapValid(s Submesh) bool {
	return s.Valid() && s.X1 >= 0 && s.X1 < m.w && s.Y1 >= 0 && s.Y1 < m.l &&
		s.W() <= m.w && s.L() <= m.l
}

// wrapPieces splits a (wrapValid) possibly seam-crossing sub-mesh into
// its planar pieces: one when it crosses no seam, two across one seam,
// four across both. Pieces are disjoint, in bounds, cover exactly the
// torus rectangle, and are ordered base quadrant first (y segment
// outer, x segment inner). O(1), no allocation.
func (m *Mesh) wrapPieces(s Submesh) ([4]Submesh, int) {
	var xs, ys [2][2]int
	nx, ny := 1, 1
	xs[0] = [2]int{s.X1, s.X2}
	if s.X2 >= m.w {
		xs[0][1] = m.w - 1
		xs[1] = [2]int{0, s.X2 - m.w}
		nx = 2
	}
	ys[0] = [2]int{s.Y1, s.Y2}
	if s.Y2 >= m.l {
		ys[0][1] = m.l - 1
		ys[1] = [2]int{0, s.Y2 - m.l}
		ny = 2
	}
	var out [4]Submesh
	n := 0
	for i := 0; i < ny; i++ {
		for j := 0; j < nx; j++ {
			out[n] = Submesh{X1: xs[j][0], Y1: ys[i][0], X2: xs[j][1], Y2: ys[i][1]}
			n++
		}
	}
	return out, n
}

// SplitWrap appends the planar pieces of a possibly seam-crossing
// sub-mesh to dst and returns the extended slice (see wrapPieces for
// the order). On a planar mesh — where searches never produce
// seam-crossing sub-meshes — it appends s unchanged as a single piece.
// Allocators commit a torus search result through SplitWrap, so the
// mutation paths stay planar; passing a reused dst keeps the commit
// allocation-free.
func (m *Mesh) SplitWrap(dst []Submesh, s Submesh) []Submesh {
	if !m.torus {
		return append(dst, s)
	}
	ps, n := m.wrapPieces(s)
	return append(dst, ps[:n]...)
}

// wrapBusy returns the busy count of a (wrapValid) possibly
// seam-crossing sub-mesh by summing its planar pieces (boxFree).
func (m *Mesh) wrapBusy(s Submesh) int {
	ps, n := m.wrapPieces(s)
	busy := 0
	for _, p := range ps[:n] {
		busy += p.Area() - m.boxFree(p)
	}
	return busy
}

// torusSubFree reports whether every processor of the possibly
// seam-crossing sub-mesh is free: the planar box probe (boxIs) over
// each of its seam-split pieces, the first busy cell ending it.
func (m *Mesh) torusSubFree(s Submesh) bool {
	if !m.wrapValid(s) {
		return false
	}
	ps, n := m.wrapPieces(s)
	for _, p := range ps[:n] {
		if !m.boxIs(p, spanOf(p.X1, p.X2), ^uint64(0)) {
			return false
		}
	}
	return true
}

// torusWindowSkip prunes base rows for a w-wide, l-tall window whose
// rows wrap: it returns the next base row >= y whose window contains no
// row failing torusRowFits, or m.l when none remains. When fresh is
// false the window of base y-1 was clean, so only row y+l-1 is new to
// it. A blocking row at or after the base lets the search jump straight
// past it; a blocking row in the wrapped prefix ends the search, since
// every later base's window wraps at least as far. Amortized O(1) per
// base row.
func (m *Mesh) torusWindowSkip(y, w, l int, fresh bool) int {
	for y < m.l {
		first := y
		if !fresh {
			first = y + l - 1
		}
		bad := -1
		for i := y + l - 1; i >= first; i-- {
			yy := i
			if yy >= m.l {
				yy -= m.l
			}
			if !m.torusRowFits(yy, w) {
				bad = i
				break
			}
		}
		switch {
		case bad < 0:
			return y
		case bad >= m.l:
			return m.l
		default:
			y, fresh = bad+1, true // every base in [y, bad] contains row bad
		}
	}
	return m.l
}

// torusFirstFit is FirstFit over the torus candidate space: bases are
// every (x, y) of the grid in row-major order, and extents wrap across
// both seams. A window row's bases are the set bits below W of its
// seam-band fit mask (torusFitMaskInto); the lowest is the row's first.
func (m *Mesh) torusFirstFit(w, l int) (Submesh, bool) {
	if w <= 0 || l <= 0 || w > m.w || l > m.l {
		return Submesh{}, false
	}
	rowAnd := sizedScratch(&m.hist.rowAnd, m.wpr)
	band := sizedScratch(&m.hist.bandMask, wordsPerRow(2*m.w))
	fresh := true
	for y := 0; y < m.l; y++ {
		y = m.torusWindowSkip(y, w, l, fresh)
		if y >= m.l {
			break
		}
		if m.torusFitMaskInto(band, rowAnd, y, w, l) {
			if x := firstMaskBit(band, m.w); x >= 0 {
				return SubAt(x, y, w, l), true
			}
		}
		fresh = false
	}
	return Submesh{}, false
}

// torusBestFit is BestFit over the torus candidate space. The score
// counts busy perimeter neighbours only: a torus has no border, and a
// side spanning its whole ring has no perimeter in that dimension (the
// ring closes on itself). The row-major-first candidate wins ties.
func (m *Mesh) torusBestFit(w, l int) (Submesh, bool) {
	if w <= 0 || l <= 0 || w > m.w || l > m.l {
		return Submesh{}, false
	}
	k := m.hist.scorer()
	k.reset(m, w, l, 1)
	rowAnd := sizedScratch(&m.hist.rowAnd, m.wpr)
	band := sizedScratch(&m.hist.bandMask, wordsPerRow(2*m.w))
	fresh := true
	for y := 0; y < m.l; y++ {
		y = m.torusWindowSkip(y, w, l, fresh)
		if y >= m.l {
			break
		}
		if m.torusFitMaskInto(band, rowAnd, y, w, l) && k.scoreRow(m, band, y, 0) {
			break
		}
		fresh = false
	}
	return k.result()
}

// largestIdeal returns the best conceivable (area, skew) under the
// caps, occupancy aside: the constrained-largest searches stop the
// moment they record a candidate this good, since later candidates can
// at best tie and first-found wins.
func largestIdeal(maxW, maxL, maxArea int) (idealArea, idealSkew int) {
	for l := 1; l <= maxL; l++ {
		w := maxW
		if w*l > maxArea {
			w = maxArea / l
		}
		if w*l > idealArea {
			idealArea = w * l
		}
	}
	idealSkew = idealArea // worse than any real candidate's skew
	for l := 1; l <= maxL; l++ {
		if idealArea%l == 0 {
			if w := idealArea / l; w <= maxW && abs(w-l) < idealSkew {
				idealSkew = abs(w - l)
			}
		}
	}
	return idealArea, idealSkew
}
