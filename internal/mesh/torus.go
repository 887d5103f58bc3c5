package mesh

// This file is the torus query layer of the occupancy index. The
// authoritative state (the bitboard words and the lazy row aggregates —
// see Mesh) is planar and maintained identically for both topologies;
// wrap-around semantics are resolved at query time:
//
//   - a free run that reaches the x = W-1 edge continues at x = 0, so
//     the run at a base is the planar run plus the row's leading run,
//     capped at W (runAt) — both pieces are word scans off the bitboard
//     (runAtBits), a few shifts per run;
//   - a rectangle whose extent crosses the x or y seam is split into
//     two (one seam) or four (both seams) planar rectangles, each
//     pop-counted off the words (wrapPieces, wrapBusy);
//   - the per-row max-run aggregate is widened into an upper bound by
//     adding the row's leading run when the trailing edge is free
//     (rowBoundAt) — a bound is all the searches need for pruning.
//
// Keeping the state planar means every mutation path, invariant and
// repair rule of the planar index carries over unchanged, and mesh-mode
// behaviour cannot drift: the torus branches are gated on m.torus.

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

// runAt returns the length of the free run at (x, y) in the row's
// traversal order: the planar rightward run on a mesh, derived from the
// bitboard words on demand; on a torus a run reaching the x = W-1 edge
// continues at x = 0, capped at W.
func (m *Mesh) runAt(x, y int) int {
	r := m.runAtBits(y, x)
	if !m.torus || r == 0 || x+r < m.w || r == m.w {
		return r
	}
	r += m.runAtBits(y, 0)
	if r > m.w {
		r = m.w
	}
	return r
}

// rowBoundAt returns an upper bound on the widest free run of row y
// under the mesh's topology: the exact planar aggregate on a mesh
// (repairing staleness), widened on a torus by the row's leading run
// when the trailing edge is free — the seam run is the trailing run
// plus the leading run, and the trailing run never exceeds the planar
// maximum, so the sum bounds it. Searches use the bound to discard
// whole rows; an over-estimate only costs a probe, never a miss.
func (m *Mesh) rowBoundAt(y int) int {
	b := m.rowMaxAt(y)
	if !m.torus || b == 0 || b >= m.w {
		return b
	}
	if !m.freeBitAt(y, m.w-1) {
		return b
	}
	b += m.runAtBits(y, 0)
	if b > m.w {
		b = m.w
	}
	return b
}

// looseRowBound is rowBoundAt without the staleness repair: the stored
// rowMax bounds the widest run from above even when stale, and the
// torus widening reads only the words (trailing-edge bit plus leading
// run), so the result is a valid upper bound — what filters need,
// never what an exact answer may use.
func (m *Mesh) looseRowBound(y int) int {
	b := m.rowMax[y]
	if m.torus && b > 0 && b < m.w && m.freeBitAt(y, m.w-1) {
		if b += m.runAtBits(y, 0); b > m.w {
			b = m.w
		}
	}
	return b
}

// rowBoundFits reports whether rowBoundAt(y) >= w, but consults the
// repair-free looseRowBound first: a loose bound below w blocks the
// row without the O(W) rescan.
func (m *Mesh) rowBoundFits(y, w int) bool {
	if m.looseRowBound(y) < w {
		return false
	}
	return m.rowBoundAt(y) >= w
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
// seam-crossing sub-mesh by summing its planar pieces.
func (m *Mesh) wrapBusy(s Submesh) int {
	ps, n := m.wrapPieces(s)
	busy := 0
	for i := 0; i < n; i++ {
		p := ps[i]
		busy += m.scanBusyBox(p.X1, p.Y1, 0, p.X2, p.Y2, 0)
	}
	return busy
}

// torusSubFree reports whether every processor of the possibly
// seam-crossing sub-mesh is free. Shallow rectangles are answered by
// one wrap-aware run probe per row; tall ones by the busy count of its
// seam-split planar pieces, masked popcounts off the bitboard words
// (wrapBusy).
func (m *Mesh) torusSubFree(s Submesh) bool {
	if !m.wrapValid(s) {
		return false
	}
	if w := s.W(); s.L() <= 8 {
		for y := s.Y1; y <= s.Y2; y++ {
			yy := y
			if yy >= m.l {
				yy -= m.l
			}
			if m.runAt(s.X1, yy) < w {
				return false
			}
		}
		return true
	}
	return m.wrapBusy(s) == 0
}

// torusWindowSkip prunes base rows for a w-wide, l-tall window whose
// rows wrap: it returns the next base row >= y whose window contains no
// row with rowBoundAt < w, or m.l when none remains. When fresh is
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
			if !m.rowBoundFits(yy, w) {
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
// both seams.
func (m *Mesh) torusFirstFit(w, l int) (Submesh, bool) {
	if w <= 0 || l <= 0 || w > m.w || l > m.l {
		return Submesh{}, false
	}
	fresh := true
	for y := 0; y < m.l; y++ {
		y = m.torusWindowSkip(y, w, l, fresh)
		if y >= m.l {
			break
		}
		for x := range m.CandidatesRow(y, w, l) {
			return SubAt(x, y, w, l), true
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
	rowAnd := sizedWordScratch(&m.hist.rowAnd, m.wpr)
	band := sizedWordScratch(&m.hist.bandMask, wordsPerRow(2*m.w))
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
