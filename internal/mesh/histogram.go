package mesh

import "slices"

// This file implements the constrained-largest search behind
// LargestFree and LargestFree3D: one engine for the planar mesh, the
// torus and the 3D mesh. The per-anchor scans it replaces (kept in the
// tests as largestFreeScan and its torus and 3D forms, the
// differential references) are O(W·L·maxL) per plane even after
// pruning; the sweep here is one maximal-rectangle-in-histogram pass
// per slab (the AND of d planes from a base plane z) over column
// heights read off the bitboard, over the doubled seam band on the
// torus. The heights are kept as segments — runs of equal height — so
// the stack steps once per segment, not once per column, and a run of
// identical slab rows is one band, swept in one pass (sweepRow).
//
// The search must return exactly what the scan returns — max capped
// volume, then the smallest side spread (spread3), then the
// (z, y, x)-first base, smaller depths then lengths winning at an equal
// base — so it runs in two phases built on one reduction (the
// equivalence argument lives in docs/occupancy-index.md §6):
//
//  1. The sweep computes MW(d, l), the widest free (wrap-aware on a
//     torus) cuboid at least d deep and l long. Every capped candidate
//     of the scan at (d, l) is at most fw(d, l) = min(MW(d, l), maxW,
//     maxVol/(l·d)) wide, and fw is achieved inside that cuboid, so the
//     best capped (volume, spread) pair over all anchors is an
//     O(maxH·maxL) fold over the table.
//  2. A scan candidate ties the winning pair only if its anchor admits
//     a free fw(d, l) x l x d cuboid for one of the winning (d, l) — at
//     most two mirror shapes on a depth-1 mesh — so the scan's winner is
//     the (z, y, x)-first FirstFit base among those shapes.

// histScratch holds the searches' reusable buffers, each sized on
// first use.
type histScratch struct {
	// The sweep's histogram (sweepRow) is a list of segments — runs of
	// columns of equal free-run height, adjacent heights distinct,
	// closed by a sentinel segment at the row width. Each band of rows
	// rebuilds seg into next and swaps the two; stack holds the band's
	// open bars.
	seg, next, stack []segment
	mw               []int // MW(d, l) of the last sweep, at (d-1)*(maxL+1)+l

	// Window-walk scratch (walk.go): the walk of the FirstFit and
	// BestFit searches and its acc and suffix rows; the doubled seam
	// band, shared by the torus walk and the torus sweep; and the slab
	// of depth > 1 (slabOf, deepen), shared by the walks and the sweep.
	// Sharing is safe because a search's phases run strictly in
	// sequence: the sweep completes before the locate starts.
	walk     walk
	suf      []uint64
	bandMask []uint64
	proj     []uint64

	// fit is the BestFit searches' scoring kernel (bestfit.go) with its
	// filter scratch, allocated by the first BestFit: held by value it
	// would grow every mesh by a few hundred bytes that most strategies
	// never touch.
	fit *fitScorer
}

// largestFree is LargestFree3D on positive caps clamped to the mesh
// sides.
func (m *Mesh) largestFree(maxW, maxL, maxH, maxVol int) (Submesh, bool) {
	// Phase 1: sweep the slabs for MW(d, l), then fold the capped
	// (volume, spread) optimum over (d, l). The capped width fw never
	// grows with l, so its first zero ends a depth's row of the table.
	mw := m.maxWidths(maxL, maxH)
	fw := func(d, l int) int {
		w := min(mw[(d-1)*(maxL+1)+l], maxW)
		if w*l*d > maxVol {
			w = maxVol / (l * d)
		}
		return w
	}
	bestVol, bestSpr := 0, 0
	for d := 1; d <= maxH; d++ {
		for l := 1; l <= maxL; l++ {
			w := fw(d, l)
			if w == 0 {
				break
			}
			if vol, spr := w*l*d, spread3(w, l, d); vol > bestVol || (vol == bestVol && spr < bestSpr) {
				bestVol, bestSpr = vol, spr
			}
		}
	}
	if bestVol == 0 {
		return Submesh{}, false
	}

	// Phase 2: the scan's winner is the (z, y, x)-first base admitting
	// a winning shape; d then l ascending keeps equal-base ties on the
	// scan's within-anchor order.
	var best Submesh
	found := false
	for d := 1; d <= maxH; d++ {
		for l := 1; l <= maxL; l++ {
			w := fw(d, l)
			if w*l*d != bestVol || spread3(w, l, d) != bestSpr {
				continue
			}
			s, ok := m.firstFit3D(w, l, d)
			if !ok {
				// MW(d, l) >= w guarantees a free w x l x d cuboid exists;
				// firstFit3D not finding one means the sweep and the
				// search disagree on occupancy.
				panic("mesh: sweep found no base for its best shape")
			}
			if !found || m.Index(s.Base()) < m.Index(best.Base()) {
				best, found = s, true
			}
		}
	}
	return best, true
}

// maxWidths sweeps every slab of at most maxH planes row by row with
// a monotonic stack and returns the MW table, indexed (d-1)*(maxL+1)+l:
// the width of the widest free cuboid at least d deep and l long, for d
// in 1..maxH and l in 1..maxL (0 when there is none). On a torus each
// slab row is rotated into the doubled seam band (doubleRowInto) — 2W
// columns and 2L−1 rows, widths capped at W and lengths at maxL <= L —
// so wrap-crossing rectangles appear as contiguous spans; every seam-band
// rectangle maps back to a genuine wrapped placement and vice versa
// (docs/occupancy-index.md §6).
//
// sweepRow advances the column heights as segments, one stack step per
// segment, and its records are maxima, so every slab of depth d records
// straight into row d of the table, and one suffix max per row turns
// the records into MW. A run of k identical slab rows is one band: a
// free column's height after it is its height before plus k, capped at
// maxL, and a busy column's is 0, exactly what k single rows give, so
// one sweepRow pass advances the whole band. Only the band's top row
// records: a rectangle whose bottom edge lies on a lower band row
// recurs on the top row with the same width and a length larger by the
// rows left (or capped equal), so its record is dominated. By the same
// argument a band whose next slab row is fully free records nothing,
// and a fully busy band zeroes every height and records nothing. The
// bands are runs of slab rows, read through row: on a torus they
// continue past row L−1 into the seam band's wrapped rows, on 3D they are
// runs of the AND, not of any plane.
//
// Each base plane's slabs deepen one plane at a time (deepen: one AND
// pass per depth, the depth-1 slab being the plane's own words), and a
// fully busy slab ends the deepening: deeper slabs are subsets of it.
// Allocation-free after the scratch buffers exist.
func (m *Mesh) maxWidths(maxL, maxH int) []int {
	hs := &m.hist
	cols, rows := m.w, m.l
	var seam []uint64
	if m.torus {
		cols, rows = 2*m.w, 2*m.l-1
		seam = sizedScratch(&hs.bandMask, wordsPerRow(cols))
	}
	mw := sizedScratch(&hs.mw, maxH*(maxL+1))
	clear(mw)
	var slab []uint64
	row := func(r int) []uint64 { // sweep row r: slab row r mod L
		if r >= m.l {
			r -= m.l
		}
		return slab[r*m.wpr:][:m.wpr]
	}
	for z := 0; z < m.h; z++ {
		slab = m.slabOf(z, 1)
		for d := 1; d <= min(maxH, m.h-z); d++ {
			if d > 1 {
				slab = m.deepen(slab, z+d-1)
			}
			rec, busy := mw[(d-1)*(maxL+1):d*(maxL+1)], true
			hs.resetSweep(cols)
			for r, k := 0, 0; r < rows; r += k {
				words := row(r)
				k = 1
				for r+k < rows && slices.Equal(row(r+k), words) {
					k++ // the band: rows r..r+k-1, all equal to row r
				}
				if !anyBit(words) {
					hs.resetSweep(cols)
					continue
				}
				busy = false
				record := r+k == rows || !m.rowFullyFree(row(r+k))
				if m.torus {
					m.doubleRowInto(seam, words)
					words = seam
				}
				hs.sweepRow(words, cols, maxL, m.w, k, record, rec)
			}
			if busy {
				break
			}
		}
	}
	for d := 0; d < maxH; d++ {
		suffixMax(mw[d*(maxL+1) : (d+1)*(maxL+1)])
	}
	return mw
}

// segment is one bar of the sweep's histogram: the columns from x up
// to the next segment's x, all of free-run height h. The stack reuses
// it for an open bar: height h, spanning from x to the current column.
type segment struct{ x, h int }

// resetSweep starts a sweep of cols columns, every height zero: one
// segment and the sentinel.
func (hs *histScratch) resetSweep(cols int) {
	hs.seg = sizedScratch(&hs.seg, cols+1)
	hs.next = sizedScratch(&hs.next, cols+1)
	hs.stack = sizedScratch(&hs.stack, cols+1)
	hs.seg[0], hs.seg[1] = segment{0, 0}, segment{cols, 0}
}

// sweepRow advances the histogram over a band of k identical rows,
// given one row's free words — a busy column's height drops to zero, a
// free column's grows by k up to maxL — in one pass over the row's runs
// and the previous band's segments. With record set, every new segment
// start also steps the monotonic stack, raising cand[h] to the widest
// span (clamped to capW, the ring width on a torus seam band) of
// height h whose bottom edge lies on the band's top row; a zero height
// flushes the stack.
//
// A segment is one bar of the histogram. Stepping the stack per column
// would add only partial widths of the same bar at the same height,
// which the bar's own record dominates, so every per-height maximum —
// and MW — is what a per-column sweep computes.
func (hs *histScratch) sweepRow(words []uint64, cols, maxL, capW, k int, record bool, cand []int) {
	old, seg, stack := hs.seg, hs.next, hs.stack
	n, top, i := 0, 0, 0
	for x := 0; ; {
		if free := maskNextFree(words, x, cols); free > x {
			seg[n] = segment{x, 0} // a busy span: height 0 flushes the stack
			n++
			for record && top > 0 {
				top--
				if w := min(x-stack[top].x, capW); w > cand[stack[top].h] {
					cand[stack[top].h] = w
				}
			}
			x = free
		}
		if x >= cols {
			break
		}
		end := maskNextBusy(words, x, cols)
		for old[i+1].x <= x {
			i++
		}
		for {
			if h := min(old[i].h+k, maxL); n == 0 || seg[n-1].h != h {
				seg[n] = segment{x, h}
				n++
				if record {
					start := x
					for top > 0 && stack[top-1].h >= h {
						top--
						start = stack[top].x
						if w := min(x-start, capW); w > cand[stack[top].h] {
							cand[stack[top].h] = w
						}
					}
					stack[top] = segment{start, h}
					top++
				}
			}
			if old[i+1].x >= end {
				break
			}
			i++
			x = old[i].x
		}
		x = end
	}
	seg[n] = segment{cols, 0}
	// End-of-row sentinel: flush the surviving bars at x = cols.
	for top > 0 {
		top--
		if w := min(cols-stack[top].x, capW); w > cand[stack[top].h] {
			cand[stack[top].h] = w
		}
	}
	hs.seg, hs.next = seg, old
}

// suffixMax folds per-height records into MW: a rectangle of height h
// contains one of every lesser height.
func suffixMax(cand []int) {
	for h := len(cand) - 2; h >= 1; h-- {
		if cand[h] < cand[h+1] {
			cand[h] = cand[h+1]
		}
	}
}

// sizedScratch returns *buf with at least n elements, growing it (and
// keeping the growth for future calls) only when needed.
func sizedScratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}
