package mesh

import "math/bits"

// This file is the word-parallel bitboard core of the occupancy index:
// per-(row, plane) uint64 masks of the free processors — the only
// occupancy state — flipped box by box by every mutation path and read
// by every search. Bit x of plane-row r's words is 1 iff cell (x, r) is
// free, so a 1024-wide row is 16 words and the inner loops of the
// searches become machine-word operations:
//
//   - every cuboid operation is one masked word operation per touched
//     word of each plane-row, under span masks built once per box
//     (spanOf): the all-free and all-busy checks (boxIs), the flip
//     (flipBox) and the free count (boxFree); the pin marks of a faulty
//     mesh share the layout, so its releases run on words too (fault.go);
//   - free-run extraction is one TrailingZeros64 per word transition
//     (maskNextFree/maskNextBusy), and the window walk's width check on
//     wide rows asks whether an AND of rows holds a free run of width w
//     at all (rowFitsWidth), walking its runs until one is long enough;
//   - the candidate bases of a w x l window row are a *fit mask*: AND
//     the window rows' words (bit x survives iff column x is free in
//     every row; the walk of walk.go does it in O(1) row ANDs per base
//     row), then narrow by width with ⌈log2 w⌉ shift-AND steps
//     (fitMask) — bit x of the result is set iff the whole w x l
//     rectangle based at x is free, and enumeration is bit iteration.
//     A w x l x h window reads the rows of an AND-projected slab of h
//     planes (slabOf), so it is l ANDs, not l·h;
//   - the torus seam band is one word rotation (doubleRowInto) instead
//     of a per-column copy, and a slab is a flat word-wise AND of its
//     planes, read by the window walks and the constrained-largest
//     sweep alike.
//
// Layout invariants (enforced by checkTables after every mutation in
// the model-checked tests and the fuzz target, where busy is the naive
// per-cell model's view; the design argument is
// docs/occupancy-index.md §9):
//
//	wpr == (w + 63) / 64 words per plane-row
//	freeW[r*wpr : (r+1)*wpr] holds plane-row r, bit x at word x/64, bit x%64
//	bit x of row r is set  <=>  !busy[r*w + x]        (for x < w)
//	bits at positions >= w are always zero             (the tail rule)
//
// The tail rule makes the edge self-sealing: free runs read off the
// words end at the planar boundary with no explicit width checks, and
// a fit mask's bits at bases where x+w would overhang are zero because
// the shifted-in tail zeros kill them.

// wordsPerRow returns the number of uint64 words that hold one row of
// w cells.
func wordsPerRow(w int) int { return (w + 63) >> 6 }

// rowWords returns the free-mask words of plane-row r.
func (m *Mesh) rowWords(r int) []uint64 { return m.freeW[r*m.wpr : (r+1)*m.wpr] }

// freeBitAt reports whether column x of plane-row r is free — the
// bitboard's Busy, one shift and mask.
func (m *Mesh) freeBitAt(r, x int) bool {
	return m.freeW[r*m.wpr+x>>6]>>uint(x&63)&1 != 0
}

// cellBit returns the word index and the bit of processor c in freeW's
// layout, which the pin marks share: the per-node mutation paths and
// the fault paths flip single bits through it; boxes go through
// flipBox.
func (m *Mesh) cellBit(c Coord) (int, uint64) {
	return m.rowIdx(c.Y, c.Z)*m.wpr + c.X>>6, 1 << uint(c.X&63)
}

// rowFullyFree reports whether every cell of a row's words (a
// plane-row or a slab row) is free: full words all ones, the tail word
// exactly the tail mask. O(wpr).
func (m *Mesh) rowFullyFree(words []uint64) bool {
	last := len(words) - 1
	for i := 0; i < last; i++ {
		if words[i] != ^uint64(0) {
			return false
		}
	}
	tailMask := ^uint64(0)
	if tail := uint(m.w & 63); tail != 0 {
		tailMask >>= 64 - tail
	}
	return words[last] == tailMask
}

// maskPrevBusy returns the position of the last clear (busy) bit of
// words at or before x, or -1 when the free run extends to the row
// start. x must be a valid column (below w), so the scan never reads
// tail bits.
func maskPrevBusy(words []uint64, x int) int {
	// Shift the busy complement so bit x lands at position 63; a nonzero
	// result's leading zero count is the distance back to the last busy.
	if v := ^words[x>>6] << uint(63-x&63); v != 0 {
		return x - bits.LeadingZeros64(v)
	}
	for i := x>>6 - 1; i >= 0; i-- {
		if words[i] != ^uint64(0) {
			return i<<6 + 63 - bits.LeadingZeros64(^words[i])
		}
	}
	return -1
}

// fillRowFree sets every valid bit of one row's words — the all-free
// pattern — leaving the tail bits at and beyond w zero.
func fillRowFree(words []uint64, w int) {
	for i := range words {
		words[i] = ^uint64(0)
	}
	if tail := uint(w & 63); tail != 0 {
		words[len(words)-1] = ^uint64(0) >> (64 - tail)
	}
}

// maskNextFree returns the position of the first set (free) bit of
// words at or after x, or limit when none lies below it.
func maskNextFree(words []uint64, x, limit int) int {
	if x >= limit {
		return limit
	}
	if v := words[x>>6] >> uint(x&63); v != 0 {
		if p := x + bits.TrailingZeros64(v); p < limit {
			return p
		}
		return limit
	}
	for i := x>>6 + 1; i<<6 < limit; i++ {
		if words[i] != 0 {
			if p := i<<6 + bits.TrailingZeros64(words[i]); p < limit {
				return p
			}
			return limit
		}
	}
	return limit
}

// maskNextBusy returns the position of the first clear (busy) bit of
// words at or after x, or limit when the free run reaches it. The tail
// rule means a planar row's runs end at W without a width check here.
func maskNextBusy(words []uint64, x, limit int) int {
	if x >= limit {
		return limit
	}
	// Complement before shifting: the zeros shifted in at the top must
	// read "no busy bit in this word", not phantom busy bits.
	if v := ^words[x>>6] >> uint(x&63); v != 0 {
		if p := x + bits.TrailingZeros64(v); p < limit {
			return p
		}
		return limit
	}
	for i := x>>6 + 1; i<<6 < limit; i++ {
		if words[i] != ^uint64(0) {
			if p := i<<6 + bits.TrailingZeros64(^words[i]); p < limit {
				return p
			}
			return limit
		}
	}
	return limit
}

// rowFitsWidth reports whether a row's words (a plane-row, or an AND
// of slab rows) hold a free run of at least w cells (w >= 1) — the
// width check of the window walk on wide rows (walk.go). It walks the
// runs off the words and stops at the first run of w, or when fewer
// than w columns remain.
func (m *Mesh) rowFitsWidth(words []uint64, w int) bool {
	for x := 0; ; {
		x0 := maskNextFree(words, x, m.w)
		if x0+w > m.w {
			return false
		}
		x1 := maskNextBusy(words, x0, m.w)
		if x1-x0 >= w {
			return true
		}
		x = x1 + 1 // the processor ending the run is busy
	}
}

// anyBit reports whether any bit of words is set.
func anyBit(words []uint64) bool {
	for _, v := range words {
		if v != 0 {
			return true
		}
	}
	return false
}

// shiftDownAnd narrows buf in place: buf &= (buf >> s) in position
// space, where bit x of the result needs bits x and x+s of the input
// and positions past the last word read as zero. Ascending order is
// safe in place — entry i reads only entries >= i+s/64 >= i.
func shiftDownAnd(buf []uint64, s int) {
	q, r := s>>6, uint(s&63)
	n := len(buf)
	for i := 0; i < n; i++ {
		var v uint64
		if i+q < n {
			v = buf[i+q] >> r
			if i+q+1 < n {
				v |= buf[i+q+1] << (64 - r) // r == 0: a 64-shift is 0 in Go
			}
		}
		buf[i] &= v
	}
}

// fitMask narrows buf from a width-1 free mask to the width-w fit
// mask: bit x of the result is set iff bits x..x+w-1 of the input all
// were. A mask of span have ANDed with itself shifted by s <= have
// yields the span have+s mask (the two windows tile the larger one
// with overlap), so doubling reaches w in ⌈log2 w⌉ shift-AND passes.
func fitMask(buf []uint64, w int) {
	for have := 1; have < w; {
		s := min(have, w-have)
		shiftDownAnd(buf, s)
		have += s
	}
}

// fold is fitMask on one word, in a register, stopping once no bit
// survives — the row form of the one-word walk (walk.go).
func fold(v uint64, w int) uint64 {
	for have := 1; have < w && v != 0; {
		s := min(have, w-have)
		v &= v >> uint(s)
		have += s
	}
	return v
}

// slabOf returns the rows of the h planes from z, AND-projected: bit x
// of slab row y is set iff column x of row y is free in every one of
// those planes, so a slab row holds a free run of width w only if all
// h plane-rows under it do, and a window's AND over l slab rows is its
// AND over all l·h plane-rows. A depth-1 slab is plane z's own words; a
// deeper one is built in one scratch buffer (deepen), so a slab stays
// valid until the next slabOf or deepen (largestFree sweeps its slabs
// one at a time and locates its winner only after the sweep is done).
func (m *Mesh) slabOf(z, h int) []uint64 {
	pw := m.l * m.wpr
	slab := m.freeW[z*pw : (z+1)*pw]
	for zz := z + 1; zz < z+h; zz++ {
		slab = m.deepen(slab, zz)
	}
	return slab
}

// deepen returns slab one plane deeper: its rows ANDed with plane z's,
// in one pass into the slab scratch. slab is either that scratch or a
// plane's own words (a depth-1 slab), which the pass copies as it ANDs.
func (m *Mesh) deepen(slab []uint64, z int) []uint64 {
	pw := m.l * m.wpr
	proj := sizedScratch(&m.hist.proj, pw)
	slab = slab[:pw]
	for i, v := range m.freeW[z*pw : (z+1)*pw] {
		proj[i] = slab[i] & v
	}
	return proj
}

// doubleRowInto builds the torus seam band of one W-bit row mask by
// word rotation: dst (wordsPerRow(2W) words) holds the row followed by
// itself, so a wrapped x span reads as a contiguous span of the band.
// The source tail bits are zero, so the two copies OR together without
// masking; band bits at and beyond 2W stay zero (the band's own tail
// rule).
func (m *Mesh) doubleRowInto(dst, src []uint64) {
	copy(dst[:m.wpr], src)
	for i := m.wpr; i < len(dst); i++ {
		dst[i] = 0
	}
	q, r := m.w>>6, uint(m.w&63)
	for i, v := range src {
		if v == 0 {
			continue
		}
		dst[i+q] |= v << r
		if i+q+1 < len(dst) {
			dst[i+q+1] |= v >> (64 - r) // r == 0: a 64-shift is 0 in Go
		}
	}
}

// firstMaskBit returns the position of the lowest set bit of words
// below limit, or -1 — the word-path first-fit base.
func firstMaskBit(words []uint64, limit int) int {
	for i, v := range words {
		if v != 0 {
			if p := i<<6 + bits.TrailingZeros64(v); p < limit {
				return p
			}
			return -1
		}
	}
	return -1
}

// span is the column span x1..x2 of a plane-row in word form, built
// once per box: words w0..w1 of the row, the first masked by m0 and the
// last by m1, the ones between whole. The box kernels walk a row as the
// words before the last (the mask turns whole after the first) and then
// the last word under its mask ANDed with m1, so a span inside one word
// costs one masked operation per row with no per-word mask selection.
type span struct {
	w0, w1 int
	m0, m1 uint64
}

// spanOf returns the word form of columns x1..x2 (0 <= x1 <= x2 < W).
func spanOf(x1, x2 int) span {
	return span{x1 >> 6, x2 >> 6, ^uint64(0) << uint(x1&63), ^uint64(0) >> uint(63-x2&63)}
}

// boxIs reports whether every cell of the (valid, in-bounds) box s,
// columns sp, reads want in the words: ^0 all free, 0 all busy. One
// masked compare per touched word of each plane-row; the first
// mismatch ends the walk.
func (m *Mesh) boxIs(s Submesh, sp span, want uint64) bool {
	f, wpr := m.freeW, m.wpr
	for z := s.Z1; z <= s.Z2; z++ {
		for o, end := m.rowIdx(s.Y1, z)*wpr, m.rowIdx(s.Y2, z)*wpr; o <= end; o += wpr {
			mk := sp.m0
			for i := o + sp.w0; i < o+sp.w1; i++ {
				if (f[i]^want)&mk != 0 {
					return false
				}
				mk = ^uint64(0)
			}
			if (f[o+sp.w1]^want)&mk&sp.m1 != 0 {
				return false
			}
		}
	}
	return true
}

// flipBox inverts the free bits of the (valid, in-bounds) box s,
// columns sp: one XOR per touched word of each plane-row. Its callers
// have checked the box uniform (all free before an allocation, all
// busy before a release), so the flip marks it busy or free.
func (m *Mesh) flipBox(s Submesh, sp span) {
	f, wpr := m.freeW, m.wpr
	for z := s.Z1; z <= s.Z2; z++ {
		for o, end := m.rowIdx(s.Y1, z)*wpr, m.rowIdx(s.Y2, z)*wpr; o <= end; o += wpr {
			mk := sp.m0
			for i := o + sp.w0; i < o+sp.w1; i++ {
				f[i] ^= mk
				mk = ^uint64(0)
			}
			f[o+sp.w1] ^= mk & sp.m1
		}
	}
}

// boxFree counts the free cells of the (valid, in-bounds) box s: one
// masked popcount per touched word of each plane-row.
func (m *Mesh) boxFree(s Submesh) int {
	sp, f, wpr, n := spanOf(s.X1, s.X2), m.freeW, m.wpr, 0
	for z := s.Z1; z <= s.Z2; z++ {
		for o, end := m.rowIdx(s.Y1, z)*wpr, m.rowIdx(s.Y2, z)*wpr; o <= end; o += wpr {
			mk := sp.m0
			for i := o + sp.w0; i < o+sp.w1; i++ {
				n += bits.OnesCount64(f[i] & mk)
				mk = ^uint64(0)
			}
			n += bits.OnesCount64(f[o+sp.w1] & mk & sp.m1)
		}
	}
	return n
}
