package mesh

import "math/bits"

// This file is the BestFit scoring kernel. Every BestFit search —
// planar, torus or 3D — runs the window walk (walk.go) and hands each
// fit mask it yields to one fitScorer. A later candidate must score
// strictly more than the best to replace it, so the scorer scores only
// the candidates that could, one word of 64 bases at a time, and reads
// their faces straight off the bitboard words:
//
//   - run ends: a base whose neighbouring base also fits has a free
//     side column over its whole window, so only the ends of a run of
//     mask bits can score a side face (a base with no neighbour — x = 0
//     on a mesh — is an end; the torus reads its ring neighbour);
//   - the word bound: no candidate of a word scores more than a full
//     side if the word holds a run end (two if a base is both ends),
//     plus, per face, the busy-or-border cells over every column its
//     candidates' faces span, capped at one face's cells. A word whose
//     bound is at most the best is skipped whole;
//   - the zero-score filter, on depth-1 fabrics (planar and torus): a
//     base that is no run end and whose y faces are free scores 0. The
//     bases with a busy y-face cell are the complement of one fit mask,
//     of the AND of the two face rows, built once per row when a word
//     first survives its bound;
//   - exact early exit: no candidate can score above the geometric
//     ceiling, so the first candidate that reaches it is the answer.
//
// docs/occupancy-index.md §14 argues why no skipped candidate could win.

// fitScorer is the per-search state of the BestFit kernel: the
// request, the running best, the faces of the base row being scored
// and its zero-score filter. The searches keep one in the mesh's
// scratch; reset sizes the filter once and reuses it after.
type fitScorer struct {
	w, l, h int
	ceiling int
	side    int // a side face's cells: l·h on a mesh, l on a torus narrower than its ring, else 0

	best   Submesh
	score  int // best score so far; -1 before the first candidate
	scored int // candidates scored since reset, for the tests' count gate

	// y, z name the base row being scored. faces holds the faces below
	// and above the window in y and, in 3D, in front of and behind it in
	// z; the first nf count (none when a torus window spans its whole
	// ring in y).
	y, z  int
	faces [4]face
	nf    int

	// filt is the zero-score filter of base row filtY (-1: none): the fit
	// mask of and, the AND of the row's y-face rows — through the seam
	// band on a wide torus. ring holds a one-word torus fit mask doubled
	// the way the band is, so every torus row reads its ring neighbours
	// alike.
	filt, and []uint64
	filtY     int
	ring      [2]uint64
}

// scorer returns the BestFit searches' kernel, allocating it on first
// use.
func (h *histScratch) scorer() *fitScorer {
	if h.fit == nil {
		h.fit = new(fitScorer)
	}
	return h.fit
}

// face is one face of the window: n plane-rows r0, r0+stride, ..., or
// n rows of border when off the mesh. cap is the cells one candidate's
// face holds.
type face struct {
	off           bool
	r0, stride, n int
	cap           int
}

// busy returns the busy-or-border cells of the face over the cnt
// columns from c0 (cnt <= W); only a torus span wraps past W-1.
func (f *face) busy(m *Mesh, c0, cnt int) int {
	if f.off {
		return cnt * f.n
	}
	b, e := 0, c0+cnt
	for j, r := 0, f.r0; j < f.n; j, r = j+1, r+f.stride {
		if e > m.w {
			b += m.spanBusy(r, c0, m.w-1) + m.spanBusy(r, 0, e-m.w-1)
		} else {
			b += m.spanBusy(r, c0, e-1)
		}
	}
	return b
}

// spanBusy returns the busy cells of plane-row r over columns c0..c1
// (0 <= c0 <= c1 < W): one masked popcount per word.
func (m *Mesh) spanBusy(r, c0, c1 int) int {
	words := m.freeW[r*m.wpr:]
	w0, w1 := c0>>6, c1>>6
	lo, hi := ^uint64(0)<<uint(c0&63), ^uint64(0)>>uint(63-c1&63)
	if w0 == w1 {
		return bits.OnesCount64(^words[w0] & lo & hi)
	}
	n := bits.OnesCount64(^words[w0]&lo) + bits.OnesCount64(^words[w1]&hi)
	for _, v := range words[w0+1 : w1] {
		n += bits.OnesCount64(^v)
	}
	return n
}

// reset readies k for a w x l x h search on m: no candidate yet, the
// score ceiling of the topology — every face fully busy or border on a
// mesh, the faces that exist on a torus (a side spanning its whole ring
// has none) — and the faces' shapes, which setRow places per row.
func (k *fitScorer) reset(m *Mesh, w, l, h int) {
	k.w, k.l, k.h = w, l, h
	k.best, k.score, k.scored, k.filtY = Submesh{}, -1, 0, -1
	f := &k.faces
	switch {
	case m.torus:
		k.ceiling, k.nf, k.side = 0, 0, 0
		if l < m.l {
			k.ceiling, k.nf = 2*w, 2
		}
		if w < m.w {
			k.ceiling, k.side = k.ceiling+2*l, l
		}
		f[0], f[1] = face{n: 1, cap: w}, face{n: 1, cap: w}
		k.filt, k.and = sizedScratch(&k.filt, wordsPerRow(2*m.w)), sizedScratch(&k.and, m.wpr)
	case m.h > 1:
		k.ceiling, k.nf, k.side = 2*(w*h+l*h+w*l), 4, l*h
		f[0] = face{stride: m.l, n: h, cap: w * h}
		f[1], f[2], f[3] = f[0], face{stride: 1, n: l, cap: w * l}, face{stride: 1, n: l, cap: w * l}
	default:
		k.ceiling, k.nf, k.side = 2*(w+l), 2, l
		f[0], f[1] = face{n: 1, cap: w}, face{n: 1, cap: w}
		k.filt, k.and = sizedScratch(&k.filt, m.wpr), sizedScratch(&k.and, m.wpr)
	}
}

// result returns the best candidate scored so far.
func (k *fitScorer) result() (Submesh, bool) { return k.best, k.score >= 0 }

// scoreRow scores the bases of base row (y, z) whose bit is set in
// mask and that could beat the best, in ascending x, keeping the first
// maximum. It reports true when a candidate reached the ceiling: the
// search is then settled and must stop. Bits at or beyond W (a torus
// band's second copy) are no bases.
func (k *fitScorer) scoreRow(m *Mesh, mask []uint64, y, z int) bool {
	k.setRow(m, y, z)
	if m.torus && m.wpr == 1 {
		v := mask[0]
		k.ring = [2]uint64{v | v<<uint(m.w), v >> uint(64-m.w)}
		mask = k.ring[:]
	}
	for i := 0; i < m.wpr; i++ {
		raw := mask[i]
		v := raw
		if r := uint(m.w & 63); m.torus && i == m.wpr-1 && r != 0 {
			v &= 1<<r - 1
		}
		if v == 0 {
			continue
		}
		// The bases just below and just above the word: the edge bits of
		// its neighbours. Base 0's left neighbour on the torus is base
		// W-1; W-1's right neighbour is the band's bit W, base 0 again.
		var in, out uint64
		if i > 0 {
			in = mask[i-1] >> 63
		} else if m.torus {
			in = mask[(m.w-1)>>6] >> uint((m.w-1)&63) & 1
		}
		if i+1 < len(mask) {
			out = mask[i+1] << 63
		}
		left, right := v&^(raw<<1|in), v&^(raw>>1|out)
		if k.score < 0 {
			// The search's first candidate wins outright; scoring it alone
			// leaves a best for the bound and the filter to beat.
			b := uint(bits.TrailingZeros64(v))
			v &= v - 1
			if k.consider(m, i<<6+int(b), left>>b&1, right>>b&1) {
				return true
			}
			if v == 0 {
				continue
			}
		}
		if k.bound(m, i<<6, v, left, right) <= k.score {
			continue
		}
		if m.h == 1 {
			v &= ^k.filter(m)[i] | left | right
		}
		for v != 0 {
			b := uint(bits.TrailingZeros64(v))
			v &= v - 1
			if k.consider(m, i<<6+int(b), left>>b&1, right>>b&1) {
				return true
			}
		}
	}
	return false
}

// setRow places the faces at base row (y, z). A face off a mesh is
// border; the torus has no border, its face rows wrap.
func (k *fitScorer) setRow(m *Mesh, y, z int) {
	k.y, k.z = y, z
	f := &k.faces
	if m.torus {
		below, above := y-1, y+k.l
		if below < 0 {
			below += m.l
		}
		if above >= m.l {
			above -= m.l
		}
		f[0].r0, f[1].r0 = below, above
		return
	}
	f[0].off, f[0].r0 = y == 0, m.rowIdx(y-1, z)
	f[1].off, f[1].r0 = y+k.l == m.l, m.rowIdx(y+k.l, z)
	if k.nf > 2 {
		f[2].off, f[2].r0 = z == 0, m.rowIdx(y, z-1)
		f[3].off, f[3].r0 = z+k.h == m.h, m.rowIdx(y, z+k.h)
	}
}

// bound returns the most any of v, the candidates of the mask word from
// column base, can score: a full side if one of them is a run end, two
// if one is both ends, plus each face's busy-or-border cells over every
// column their faces span, capped at one face's cells.
func (k *fitScorer) bound(m *Mesh, base int, v, left, right uint64) int {
	ub := 0
	if (left|right)&v != 0 {
		ub += k.side
	}
	if left&right&v != 0 {
		ub += k.side
	}
	lo := base + bits.TrailingZeros64(v)
	n := min(base+63-bits.LeadingZeros64(v)-lo+k.w, m.w)
	for i := range k.faces[:k.nf] {
		f := &k.faces[i]
		ub += min(f.cap, f.busy(m, lo, n))
	}
	return ub
}

// filter returns the row's zero-score filter, building it on the row's
// first call: bit x (x < W) is set iff both y faces of the base at x
// are free, or absent on a torus window spanning its ring in y. Only
// depth-1 fabrics have it — a 3D candidate scores on its z faces too.
func (k *fitScorer) filter(m *Mesh) []uint64 {
	if k.filtY == k.y {
		return k.filt
	}
	k.filtY = k.y
	fillRowFree(k.and, m.w)
	for i := range k.faces[:k.nf] {
		f := &k.faces[i]
		if f.off {
			clear(k.and) // a border face is busy under every base
			break
		}
		for j, v := range m.rowWords(f.r0) {
			k.and[j] &= v
		}
	}
	switch {
	case !m.torus:
		copy(k.filt, k.and)
		fitMask(k.filt, k.w)
	case m.wpr == 1:
		k.filt[0] = ringFold(k.and[0], k.w, m.w)
	default:
		m.doubleRowInto(k.filt, k.and)
		fitMask(k.filt, k.w)
	}
	return k.filt
}

// consider scores the base at column x of the row, reading a side face
// only where leftEnd or rightEnd is 1, and keeps it when it beats the
// best. It reports true when the score reached the ceiling.
func (k *fitScorer) consider(m *Mesh, x int, leftEnd, rightEnd uint64) bool {
	k.scored++
	s := 0
	if leftEnd != 0 {
		s += k.sideBusy(m, x-1)
	}
	if rightEnd != 0 {
		s += k.sideBusy(m, x+k.w)
	}
	for i := range k.faces[:k.nf] {
		s += k.faces[i].busy(m, x, k.w)
	}
	if s <= k.score {
		return false
	}
	k.score, k.best = s, SubAt3D(x, k.y, k.z, k.w, k.l, k.h)
	return s >= k.ceiling
}

// sideBusy returns the busy-or-border cells of column c over the
// window's plane-rows: border off a mesh, column c mod W and rows mod L
// on the torus.
func (k *fitScorer) sideBusy(m *Mesh, c int) int {
	switch {
	case !m.torus && (c < 0 || c >= m.w):
		return k.side
	case c < 0:
		c += m.w
	case c >= m.w:
		c -= m.w
	}
	i, b, busy := c>>6, uint(c&63), 0
	for z := k.z; z < k.z+k.h; z++ {
		for y := k.y; y < k.y+k.l; y++ {
			r := y
			if r >= m.l {
				r -= m.l
			}
			busy += int(^m.freeW[m.rowIdx(r, z)*m.wpr+i] >> b & 1)
		}
	}
	return busy
}
