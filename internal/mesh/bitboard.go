package mesh

import "math/bits"

// This file is the word-parallel bitboard core of the occupancy index:
// per-(row, plane) uint64 masks of the free processors — the only
// occupancy state — flipped span by span by every mutation path and
// read by every search. Bit x of plane-row r's words is 1 iff cell
// (x, r) is free, so a 1024-wide row is 16 words and the inner loops of
// the searches become machine-word operations:
//
//   - a row-span freeness probe is a masked compare per touched word
//     (rowFreeSpan), and free-run extraction is one TrailingZeros64
//     per word transition (maskNextFree/maskNextBusy);
//   - the searches' row pruning asks whether a row holds a free run of
//     width w at all (rowFitsWidth): a one-word row narrows in a
//     register, a wider one walks its runs until one is long enough;
//   - the candidate bases of a w x l window row are a *fit mask*: AND
//     the window rows' words (bit x survives iff column x is free in
//     every row), then narrow by width with ⌈log2 w⌉ shift-AND steps
//     (fitMask) — bit x of the result is set iff the whole w x l
//     rectangle based at x is free, and enumeration is bit iteration;
//   - the torus seam band is one word rotation (doubleRowInto) instead
//     of a per-column copy, and the 3D AND-projected plane is a flat
//     word-wise AND across z slabs (volume.go).
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

// setFreeBit marks column x of plane-row r free. The single-cell flip
// behind the per-node mutation paths (Allocate/Release and their
// rollbacks); spans go through markRowSpan.
func (m *Mesh) setFreeBit(r, x int) { m.freeW[r*m.wpr+x>>6] |= 1 << uint(x&63) }

// clearFreeBit marks column x of plane-row r busy.
func (m *Mesh) clearFreeBit(r, x int) { m.freeW[r*m.wpr+x>>6] &^= 1 << uint(x&63) }

// rowFullyFree reports whether every cell of plane-row r is free: full
// words all ones, the tail word exactly the tail mask. O(wpr).
func (m *Mesh) rowFullyFree(r int) bool {
	words := m.rowWords(r)
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

// markRowSpan flips the free bits of columns [x1, x2] of plane-row r:
// busy clears them, free sets them. The span is in-row (x2 < w), so
// the tail rule is preserved. This is the bitboard's whole incremental
// maintenance: the span mutation paths funnel through it (flipBox), the
// per-node ones flip single bits (setFreeBit/clearFreeBit).
func (m *Mesh) markRowSpan(r, x1, x2 int, toBusy bool) {
	row := m.rowWords(r)
	w0, w1 := x1>>6, x2>>6
	for i := w0; i <= w1; i++ {
		lo, hi := 0, 63
		if i == w0 {
			lo = x1 & 63
		}
		if i == w1 {
			hi = x2 & 63
		}
		mask := (^uint64(0) >> uint(63-(hi-lo))) << uint(lo)
		if toBusy {
			row[i] &^= mask
		} else {
			row[i] |= mask
		}
	}
}

// rowFreeSpan reports whether columns [x, x+w) of plane-row r are all
// free — the per-row masked compare behind the word-path FitsAt. The
// span is assumed in bounds (x+w <= W).
func (m *Mesh) rowFreeSpan(r, x, w int) bool {
	row := m.rowWords(r)
	w0, w1 := x>>6, (x+w-1)>>6
	for i := w0; i <= w1; i++ {
		lo, hi := 0, 63
		if i == w0 {
			lo = x & 63
		}
		if i == w1 {
			hi = (x + w - 1) & 63
		}
		mask := (^uint64(0) >> uint(63-(hi-lo))) << uint(lo)
		if row[i]&mask != mask {
			return false
		}
	}
	return true
}

// rowFreeSpanWrap is rowFreeSpan with the x extent wrapping around the
// torus ring: a span past W splits into its two planar pieces.
func (m *Mesh) rowFreeSpanWrap(r, x, w int) bool {
	if x+w <= m.w {
		return m.rowFreeSpan(r, x, w)
	}
	return m.rowFreeSpan(r, x, m.w-x) && m.rowFreeSpan(r, 0, x+w-m.w)
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

// rowFitsWidth reports whether plane-row r holds a free run of at least
// w cells (w >= 1) — the row pruning of every search. A one-word row
// narrows in a register by shift-AND doubling (fitMask's fold), stopping
// once no bit survives; a wider row walks its runs off the words and
// stops at the first run of w, or when fewer than w columns remain.
func (m *Mesh) rowFitsWidth(r, w int) bool {
	words := m.rowWords(r)
	if len(words) == 1 {
		v := words[0]
		for have := 1; have < w && v != 0; {
			s := min(have, w-have)
			v &= v >> uint(s)
			have += s
		}
		return v != 0
	}
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

// runAtBits returns the free-run length at (x, plane-row r) read off
// the words: the count of consecutive free cells from x rightward.
func (m *Mesh) runAtBits(r, x int) int {
	return maskNextBusy(m.rowWords(r), x, m.w) - x
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
		s := have
		if have+s > w {
			s = w - have
		}
		shiftDownAnd(buf, s)
		have += s
	}
}

// windowMaskInto ANDs the free words of the l x h window of plane-rows
// based at row y, planes z..z+h-1 into dst (wpr words) and reports
// whether any bit survived — bit x of the result is set iff column x
// is free in every window row, so a zero mask has no candidate base at
// any width and callers can stop before the fit-mask narrowing.
func (m *Mesh) windowMaskInto(dst []uint64, y, z, l, h int) bool {
	copy(dst, m.rowWords(m.rowIdx(y, z)))
	if l == 1 && h == 1 {
		return anyBit(dst)
	}
	for zz := z; zz < z+h; zz++ {
		yy0 := y
		if zz == z {
			yy0 = y + 1
		}
		for yy := yy0; yy < y+l; yy++ {
			src := m.rowWords(m.rowIdx(yy, zz))
			var any uint64
			for i, v := range src {
				dst[i] &= v
				any |= dst[i]
			}
			if any == 0 {
				return false
			}
		}
	}
	return true
}

// planarFitMaskInto builds the width-w fit mask of the w x l x h
// window family based at row y, planes z..z+h-1: bit x of dst is set
// iff the cuboid based at (x, y, z) is entirely free. A false return
// means the mask is certainly zero (some window column is nowhere
// free); true means enumeration may still find no set bit.
func (m *Mesh) planarFitMaskInto(dst []uint64, y, z, w, l, h int) bool {
	if !m.windowMaskInto(dst, y, z, l, h) {
		return false
	}
	fitMask(dst, w)
	return true
}

// torusRowAndInto ANDs the free words of the l wrapped window rows
// y..y+l-1 (mod L) into dst (wpr words), reporting whether any bit
// survived — the planar half of a torus fit mask. Doubling commutes
// with AND (both are per-bit), so ANDing first and rotating the seam
// band once (doubleRowInto) equals doubling every row.
func (m *Mesh) torusRowAndInto(dst []uint64, y, l int) bool {
	yy := y
	if yy >= m.l {
		yy -= m.l
	}
	copy(dst, m.rowWords(yy))
	if l == 1 {
		return anyBit(dst)
	}
	for i := 1; i < l; i++ {
		yy := y + i
		if yy >= m.l {
			yy -= m.l
		}
		src := m.rowWords(yy)
		var any uint64
		for j, v := range src {
			dst[j] &= v
			any |= dst[j]
		}
		if any == 0 {
			return false
		}
	}
	return true
}

// torusFitMaskInto builds the width-w torus fit mask of the wrapped
// window rows y..y+l-1 into band (wordsPerRow(2W) words), using rowAnd
// (wpr words) for the planar AND: set bits below W are exactly the
// wrapped candidate bases (a bit in [W, 2W) is the same placement seen
// from the second copy). False means no base survived the AND.
func (m *Mesh) torusFitMaskInto(band, rowAnd []uint64, y, w, l int) bool {
	if !m.torusRowAndInto(rowAnd, y, l) {
		return false
	}
	m.doubleRowInto(band, rowAnd)
	fitMask(band, w)
	return true
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

// busyRowSpanBits counts the busy cells in columns [x1, x2] of
// plane-row r: the span length minus the popcount of its free bits —
// the busy counts behind BusyInRect, read straight off the bitboard.
func (m *Mesh) busyRowSpanBits(r, x1, x2 int) int {
	row := m.rowWords(r)
	w0, w1 := x1>>6, x2>>6
	free := 0
	for i := w0; i <= w1; i++ {
		lo, hi := 0, 63
		if i == w0 {
			lo = x1 & 63
		}
		if i == w1 {
			hi = x2 & 63
		}
		mask := (^uint64(0) >> uint(63-(hi-lo))) << uint(lo)
		free += bits.OnesCount64(row[i] & mask)
	}
	return x2 - x1 + 1 - free
}
