package mesh

import "math/bits"

// This file is the BestFit scoring kernel. Every BestFit search —
// planar, torus or 3D — runs the window walk (walk.go) and hands each
// fit mask it yields to one fitScorer, which scores the row's
// candidates in ascending x off per-row arrays instead of probing
// their faces one by one:
//
//   - side faces: col counts the busy cells of each column over the
//     window's plane-rows. The counts slide with the base row — each
//     row leaving the window is traded for the row entering it, l rows
//     on, so only the columns where the two differ change — and are
//     rebuilt after a jump of l or more rows or a change of plane
//     window. The left and right faces are the counts of the columns
//     either side of the candidate (mod W on the torus);
//   - y faces, and z faces in 3D: the bounding row of each window
//     plane, or the window rows of the bounding plane, as prefix sums
//     over the columns (rowFace), so a face over [x, x+w) is one
//     difference — two when a torus span crosses the seam;
//   - exact early exit: no candidate can score above the geometric
//     ceiling, and a later candidate must score strictly more to win,
//     so the first candidate that reaches the ceiling is the answer.
//
// The arrays are brought to the base row one word of 64 columns at a
// time, when a word of the fit mask first has candidates reading them
// (span): a wide row with few candidates pays only for the words they
// read, and a row without candidates pays nothing.
// docs/occupancy-index.md §14 states the invariants and the exactness
// argument.

// fitScorer is the per-search state of the BestFit kernel: the
// request, the running best, and the per-row arrays. The searches keep
// one in the mesh's scratch; reset sizes the arrays once and reuses
// them after.
type fitScorer struct {
	w, l, h int
	ceiling int

	best  Submesh
	score int // best score so far; -1 before the first candidate

	// y, z name the base row being scored, at its plane-row index.
	// wordAt[i] names the base row (a plane-row index; -1: none) that
	// word i of col and of every face's xs was last brought to.
	y, z, at int
	wordAt   []int

	// col[x+1] is the busy count of column x over the window's
	// plane-rows; col[0] and col[W+1] are the planar border sentinels,
	// l·h each.
	col []int

	// faces holds the faces below and above the window in y and, in
	// 3D, in front of and behind it in z; the first nf count (none when
	// a torus window spans its whole ring in y).
	faces [4]rowFace
	nf    int
}

// scorer returns the BestFit searches' kernel, allocating it on first
// use.
func (h *histScratch) scorer() *fitScorer {
	if h.fit == nil {
		h.fit = new(fitScorer)
	}
	return h.fit
}

// rowFace is one face of the window: n plane-rows r0, r0+stride, ...,
// or n rows of border when the face lies off the mesh. xs[x] is the
// face's busy cells in columns [0, x), for x in 0..W: xs[W], the
// face's total, is set by build, and the rest one word of 64 positions
// at a time, when a candidate first reads it (fill). pre[i], the busy
// cells in words [0, i) of the face's rows, lets any word be filled on
// its own.
type rowFace struct {
	off           bool
	r0, stride, n int
	pre           []int
	xs            []int
}

// reset readies k for a w x l x h search on m: no candidate yet, no
// words brought to any row, and the score ceiling of the topology —
// every face fully busy or border on a mesh, the faces that exist on a
// torus (a side spanning its whole ring has none).
func (k *fitScorer) reset(m *Mesh, w, l, h int) {
	k.w, k.l, k.h = w, l, h
	k.best, k.score = Submesh{}, -1
	k.col = sizedScratch(&k.col, m.w+2)
	k.col[0], k.col[m.w+1] = l*h, l*h
	k.wordAt = sizedScratch(&k.wordAt, m.wpr)
	for i := range k.wordAt {
		k.wordAt[i] = -1
	}
	switch {
	case m.torus:
		k.ceiling, k.nf = 0, 0
		if l < m.l {
			k.ceiling, k.nf = 2*w, 2
		}
		if w < m.w {
			k.ceiling += 2 * l
		}
	case m.h > 1:
		k.ceiling, k.nf = 2*(w*h+l*h+w*l), 4
	default:
		k.ceiling, k.nf = 2*(w+l), 2
	}
	for i := 0; i < k.nf; i++ {
		f := &k.faces[i]
		f.pre = sizedScratch(&f.pre, m.wpr+1)
		f.xs = sizedScratch(&f.xs, m.w+1)
	}
}

// result returns the best candidate scored so far.
func (k *fitScorer) result() (Submesh, bool) { return k.best, k.score >= 0 }

// scoreRow scores every base of base row (y, z) whose bit is set in
// mask, in ascending x, keeping the first maximum. It reports true when
// a candidate reached the ceiling: the search is then settled and must
// stop. Bits at or beyond W (a torus band's second copy) are ignored.
func (k *fitScorer) scoreRow(m *Mesh, mask []uint64, y, z int) bool {
	built := false
	for i, v := range mask {
		if v == 0 {
			continue
		}
		base := i << 6
		lo := base + bits.TrailingZeros64(v)
		if lo >= m.w {
			return false
		}
		if !built {
			k.buildRow(m, y, z)
			built = true
		}
		// The columns and prefix positions this word's candidates read:
		// the left side and the faces' left ends, then the faces' right
		// ends and the right side.
		hi := min(base+63-bits.LeadingZeros64(v), m.w-1)
		k.span(m, lo-1, hi)
		k.span(m, lo+k.w, hi+k.w)
		for v != 0 {
			x := base + bits.TrailingZeros64(v)
			if x >= m.w {
				return false
			}
			v &= v - 1
			if s := k.scoreAt(m, x); s > k.score {
				k.score, k.best = s, SubAt3D(x, y, z, k.w, k.l, k.h)
				if s >= k.ceiling {
					return true
				}
			}
		}
	}
	return false
}

// scoreAt is the face score of the candidate based at column x of the
// row buildRow prepared, the words it reads brought to the row by span.
// On a mesh the border sentinels and border faces stand in for the
// cells off the mesh.
func (k *fitScorer) scoreAt(m *Mesh, x int) int {
	w, f := k.w, &k.faces
	if m.torus {
		s := 0
		if w < m.w {
			left, right := x, x+w+1
			if x == 0 {
				left = m.w
			}
			if right > m.w {
				right -= m.w
			}
			s += k.col[left] + k.col[right]
		}
		if k.nf > 0 {
			s += f[0].wrapSpan(m, x, w) + f[1].wrapSpan(m, x, w)
		}
		return s
	}
	s := k.col[x] + k.col[x+w+1] + f[0].xs[x+w] - f[0].xs[x] + f[1].xs[x+w] - f[1].xs[x]
	if k.nf > 2 {
		s += f[2].xs[x+w] - f[2].xs[x] + f[3].xs[x+w] - f[3].xs[x]
	}
	return s
}

// span brings the words holding columns c0..c1 — their counts and
// their face prefix positions — to the base row. Off a mesh the
// columns are border sentinels, and position W is the total build set;
// on a torus they wrap.
func (k *fitScorer) span(m *Mesh, c0, c1 int) {
	if m.torus {
		if c1-c0+1 >= m.w {
			c0, c1 = 0, m.w-1
		} else {
			c0, c1 = (c0+m.w)%m.w, (c1+m.w)%m.w
			if c0 > c1 {
				k.span(m, c0, m.w-1)
				c0 = 0
			}
		}
	} else {
		c0, c1 = max(c0, 0), min(c1, m.w-1)
	}
	for i := c0 >> 6; c0 <= c1 && i <= c1>>6; i++ {
		if k.wordAt[i] != k.at {
			k.colWord(m, i)
			for j := 0; j < k.nf; j++ {
				k.faces[j].fill(m, i)
			}
			k.wordAt[i] = k.at
		}
	}
}

// buildRow prepares base row (y, z) for scoring: it builds the faces'
// word prefixes and totals. A face off the mesh is all border, one
// cell per face row and column.
func (k *fitScorer) buildRow(m *Mesh, y, z int) {
	k.y, k.z, k.at = y, z, m.rowIdx(y, z)
	l, h, f := k.l, k.h, &k.faces
	switch {
	case m.torus:
		if k.nf > 0 {
			f[0].build(m, false, (y+m.l-1)%m.l, 0, 1)
			f[1].build(m, false, (y+l)%m.l, 0, 1)
		}
	default:
		f[0].build(m, y == 0, m.rowIdx(y-1, z), m.l, h)
		f[1].build(m, y+l == m.l, m.rowIdx(y+l, z), m.l, h)
		if k.nf > 2 {
			f[2].build(m, z == 0, m.rowIdx(y, z-1), 1, l)
			f[3].build(m, z+h == m.h, m.rowIdx(y, z+h), 1, l)
		}
	}
}

// build makes f the face of the n plane-rows r0, r0+stride, ... — or,
// when off, of n rows of border — down to its word prefix and its
// total xs[W]; fill completes the words scoring reads.
func (f *rowFace) build(m *Mesh, off bool, r0, stride, n int) {
	f.off, f.r0, f.stride, f.n = off, r0, stride, n
	if off {
		f.xs[m.w] = m.w * n
		return
	}
	f.pre[0] = 0
	for i := 0; i < m.wpr; i++ {
		busy := 0
		for j := 0; j < n; j++ {
			busy += bits.OnesCount64(^m.freeW[(r0+j*stride)*m.wpr+i])
		}
		f.pre[i+1] = f.pre[i] + busy
	}
	f.xs[m.w] = f.pre[m.wpr] - n*(m.wpr<<6-m.w) // less the tail bits
}

// fill computes xs over word i's positions (64i up to 64i+63, below W)
// one busy bit at a time. Positions stop short of W, so the tail bits
// are never counted.
func (f *rowFace) fill(m *Mesh, i int) {
	xs := f.xs[i<<6 : min(i<<6+64, m.w)]
	if f.off {
		for p := range xs {
			xs[p] = (i<<6 + p) * f.n
		}
		return
	}
	// The first row's running count starts from the word prefix; later
	// rows add theirs.
	for j := 0; j < f.n; j++ {
		b := ^m.freeW[(f.r0+j*f.stride)*m.wpr+i]
		if j == 0 {
			c := f.pre[i]
			for p := range xs {
				xs[p] = c
				c += int(b & 1)
				b >>= 1
			}
			continue
		}
		c := 0
		for p := range xs {
			xs[p] += c
			c += int(b & 1)
			b >>= 1
		}
	}
}

// wrapSpan returns the busy cells of torus columns [x, x+w) of the
// face, splitting a span that crosses the seam into its two planar
// pieces.
func (f *rowFace) wrapSpan(m *Mesh, x, w int) int {
	if e := x + w; e > m.w {
		return f.xs[m.w] - f.xs[x] + f.xs[e-m.w]
	}
	return f.xs[x+w] - f.xs[x]
}

// colWord brings count word i (columns 64i..64i+63) to the base row.
// A word standing at a row of the same plane window fewer than l rows
// back slides: each row that left the window is traded for the row
// that entered it, l rows on. Anything else rebuilds from the l window
// rows. Rows past L wrap (the torus window; planar rows never reach L).
func (k *fitScorer) colWord(m *Mesh, i int) {
	word := func(y, z int) uint64 {
		if y >= m.l {
			y -= m.l
		}
		return m.freeW[m.rowIdx(y, z)*m.wpr+i]
	}
	cnt := k.col[1:]
	from := k.wordAt[i]
	if from >= 0 && from/m.l == k.z && from <= k.at && k.at-from < k.l {
		for yy := from - k.z*m.l; yy < k.y; yy++ {
			for zz := k.z; zz < k.z+k.h; zz++ {
				tradeWord(cnt, i, word(yy, zz), word(yy+k.l, zz))
			}
		}
	} else {
		clear(cnt[i<<6 : min(i<<6+64, m.w)])
		for yy := k.y; yy < k.y+k.l; yy++ {
			for zz := k.z; zz < k.z+k.h; zz++ {
				addBusyWord(cnt, i, word(yy, zz), m.w)
			}
		}
	}
}

// addBusyWord adds one to cnt[x] for every busy column x < w in word i
// of a row, given the word's free bits: one TrailingZeros64 per busy
// cell.
func addBusyWord(cnt []int, i int, free uint64, w int) {
	b := ^free
	if end := w - i<<6; end < 64 {
		b &= 1<<uint(end) - 1 // tail bits are zero, not busy
	}
	for ; b != 0; b &= b - 1 {
		cnt[i<<6+bits.TrailingZeros64(b)]++
	}
}

// tradeWord turns counts that include a row's word i into counts that
// include another row's instead, given both words' free bits: only the
// columns where the two differ change. Tail bits are zero in both, so
// they never differ.
func tradeWord(cnt []int, i int, out, in uint64) {
	for b := out &^ in; b != 0; b &= b - 1 {
		cnt[i<<6+bits.TrailingZeros64(b)]++ // busy in the entering row only
	}
	for b := in &^ out; b != 0; b &= b - 1 {
		cnt[i<<6+bits.TrailingZeros64(b)]-- // busy in the leaving row only
	}
}
