package mesh

// This file is the torus query layer of the occupancy index. The
// occupancy state (the bitboard words — see Mesh) is planar and
// maintained identically for both topologies; wrap-around semantics
// are resolved at query time:
//
//   - a rectangle whose extent crosses the x or y seam is split into
//     two (one seam) or four (both seams) planar rectangles, each
//     probed or pop-counted off the words by the planar box kernels
//     (wrapPieces, torusSubFree, wrapFree);
//   - the searches run the planar window walk (walk.go) with base rows
//     0..L-1 and window rows wrapping past L. Its width check on wide
//     rows asks whether an AND of rows holds a wrapped free run
//     (ringFitsWidth): a planar run, or the trailing run (a free run
//     reaching the x = W-1 edge) carried across the seam into the
//     leading run. One-word rows enter the walk as ring fit masks
//     (ringFold), and a wider window is rotated once into the doubled
//     seam band (doubleRowInto) and narrowed there;
//   - the constrained-largest sweep (histogram.go) rotates every row
//     into the same seam band and runs 2L−1 band rows, so a wrapped
//     rectangle is a contiguous span of the band.
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

// ringFitsWidth reports whether a row's words (a torus row, or an AND
// of torus rows) hold a free run of at least w cells (1 <= w <= W) on
// the ring: a planar run (rowFitsWidth), or, when the trailing edge is
// free, the trailing run plus the leading run it continues into across
// the seam. Words that are not all free have a busy cell, so the sum
// never exceeds W.
func (m *Mesh) ringFitsWidth(words []uint64, w int) bool {
	if m.rowFitsWidth(words, w) {
		return true
	}
	last := m.w - 1
	if words[last>>6]>>uint(last&63)&1 == 0 {
		return false
	}
	return last-maskPrevBusy(words, last)+maskNextBusy(words, 0, m.w) >= w
}

// ringFold is fold on a one-word torus row of W bits: each step
// rotates within the ring instead of shifting, so bit x of the result
// is set iff bits x..x+w-1 (mod W) of v all were.
func ringFold(v uint64, w, W int) uint64 {
	ring := ^uint64(0) >> uint(64-W)
	for have := 1; have < w && v != 0; {
		s := min(have, w-have)
		v &= (v>>uint(s) | v<<uint(W-s)) & ring
		have += s
	}
	return v
}

// wrapValid reports whether s is a well-formed sub-mesh of the torus:
// base on the mesh, extents no larger than the rings, and in plane 0,
// the torus being depth 1. The end may exceed the planar bounds — X2
// >= W (or Y2 >= L) encodes a seam-crossing extent, interpreted modulo
// the ring size.
func (m *Mesh) wrapValid(s Submesh) bool {
	return s.Valid() && s.X1 >= 0 && s.X1 < m.w && s.Y1 >= 0 && s.Y1 < m.l &&
		s.W() <= m.w && s.L() <= m.l && s.Z1 == 0 && s.Z2 == 0
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

// wrapFree returns the free count of a (wrapValid) possibly
// seam-crossing sub-mesh by summing its planar pieces (boxFree).
func (m *Mesh) wrapFree(s Submesh) int {
	ps, n := m.wrapPieces(s)
	free := 0
	for _, p := range ps[:n] {
		free += m.boxFree(p)
	}
	return free
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
