package mesh

// This file implements the constrained-largest search behind
// LargestFree and LargestFree3D: one engine for the planar mesh, the
// torus and the 3D mesh. The per-anchor scans it replaces (kept in the
// tests as largestFreeScan and its torus and 3D forms, the
// differential references) are O(W·L·maxL) per plane even after
// pruning; the sweep here is one maximal-rectangle-in-histogram pass
// per slab (slabOf: the AND of d planes from a base plane z) over
// column heights read off the bitboard, over the doubled seam band on
// the torus. The heights are kept as segments — runs of equal height —
// so the stack steps once per segment, not once per column (sweepRow).
//
// The search must return exactly what the scan returns — max capped
// volume, then the smallest side spread (spread3), then the
// (z, y, x)-first base, smaller depths then lengths winning at an equal
// base — so it runs in phases built on one reduction (the equivalence
// argument lives in docs/occupancy-index.md §6):
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
//
// On a depth-1 mesh phase 0 short-circuits both: candidate (area, skew)
// pairs are probed best-first, descending from the occupancy-blind
// ideal (largestIdeal) off a max-heap of divisor pairs (pairHeap), and
// the first pair with a placeable shape is the answer — the sweep never
// runs, the common case for lightly loaded meshes and, through the
// release-epoch memoization below, for the tail carves of a GABL
// request.

// histScratch holds the sweep's reusable buffers plus the searches'
// release-epoch memoization, lazily sized on first use so meshes that
// never run a constrained-largest search carry no extra memory.
//
// The memoization rests on monotonicity: allocations only shrink the
// free space, so until the next release (Mesh.releaseEpoch) a failed
// shape probe stays failed and a computed MW table stays a valid upper
// bound. GABL's carve loop — allocate piece, search again, allocate —
// is exactly this regime, so the tail carves of one request inherit
// everything its first searches learned.
type histScratch struct {
	// The sweep's histogram (sweepRow) is a list of segments — runs of
	// columns of equal free-run height, adjacent heights distinct,
	// closed by a sentinel segment at the band width. Each row rebuilds
	// seg into next and swaps the two; stack holds the row's open bars.
	seg, next, stack []segment
	mw               []int // MW(d, l) of the last sweep, at d*(sweepMaxL+1)+l

	sweepMaxL  int    // lengths mw covers; 0 = no sweep cached
	sweepEpoch uint64 // release epoch mw was swept at

	pairs pairHeap // the probe phase's pending shape pairs

	failed      [maxFailedShapes][2]int // Pareto frontier of refuted shapes
	nFailed     int
	failedEpoch uint64

	// Window-walk scratch (walk.go): the walk of the FirstFit and
	// BestFit searches and its acc and suffix rows; the doubled seam
	// band, shared by the torus walk and the torus sweep; and the slab
	// of depth > 1 (slabOf), shared by the walks and the sweep. Sharing
	// is safe because a search's phases run strictly in sequence: its
	// probes complete before the sweep starts, and the sweep before
	// the locate.
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

// maxFailedShapes bounds the refuted-shape frontier; beyond it new
// failures are simply not recorded (a cost bound, never a correctness
// one).
const maxFailedShapes = 24

// noteRelease invalidates the alloc-monotone memoization: something
// became free, so refuted shapes may fit and the cached MW may
// under-report. Called by every mutation path that frees processors.
func (m *Mesh) noteRelease() { m.releaseEpoch++ }

// refuted reports whether shape w x l is known not to fit: it contains
// a shape that failed a probe since the last release. O(frontier).
func (m *Mesh) refuted(w, l int) bool {
	if m.hist.failedEpoch != m.releaseEpoch {
		m.hist.nFailed = 0
		m.hist.failedEpoch = m.releaseEpoch
		return false
	}
	for i := 0; i < m.hist.nFailed; i++ {
		if w >= m.hist.failed[i][0] && l >= m.hist.failed[i][1] {
			return true
		}
	}
	return false
}

// noteRefuted records a failed shape probe, keeping the frontier an
// antichain: entries dominated by the newcomer are dropped, and a
// dominated newcomer is not stored.
func (m *Mesh) noteRefuted(w, l int) {
	h := &m.hist
	if h.failedEpoch != m.releaseEpoch {
		h.nFailed = 0
		h.failedEpoch = m.releaseEpoch
	}
	keep := 0
	for i := 0; i < h.nFailed; i++ {
		if h.failed[i][0] <= w && h.failed[i][1] <= l {
			return // newcomer dominated: already covered
		}
		if !(h.failed[i][0] >= w && h.failed[i][1] >= l) {
			h.failed[keep] = h.failed[i]
			keep++
		}
	}
	h.nFailed = keep
	if h.nFailed < maxFailedShapes {
		h.failed[h.nFailed] = [2]int{w, l}
		h.nFailed++
	}
}

// sweepUpperArea bounds the best capped area achievable under the caps
// using the cached MW table's d = 1 row: while no release intervened,
// MW only shrinks, so the cached value bounds the current one from
// above (for lengths past the cached range, MW's monotonicity in length
// extends the last entry). Returns area upper bound and whether a cache
// was usable.
func (m *Mesh) sweepUpperArea(maxW, maxL, maxArea int) (int, bool) {
	h := &m.hist
	if h.sweepMaxL == 0 || h.sweepEpoch != m.releaseEpoch {
		return 0, false
	}
	mw, ub := h.mw[h.sweepMaxL+1:], 0
	for l := 1; l <= maxL; l++ {
		w := min(mw[min(l, h.sweepMaxL)], maxW)
		if w == 0 {
			break // suffix max: longer is never wider
		}
		if w*l > maxArea {
			w = maxArea / l
		}
		ub = max(ub, w*l)
	}
	return ub, true
}

// Probe-phase budgets: bestFirstProbe gives up after this many FirstFit
// probes (each exact, each Ω(rows scanned)) or examined areas, handing
// the call to the sweep. Budgets bound cost only — a probe hit is the
// exact answer at any budget, and budget exhaustion changes nothing but
// which machinery computes the same result.
const (
	probeBudget = 16
	areaBudget  = 1024
)

// largestFree is LargestFree3D on positive caps clamped to the mesh
// sides.
func (m *Mesh) largestFree(maxW, maxL, maxH, maxVol int) (Submesh, bool) {
	if m.h == 1 {
		// Phase 0, on depth-1 meshes (on deeper ones probing measured
		// slower end to end): the cached sweep bounds this call's best
		// area from above while no release intervened — zero means no
		// candidate can exist under the caps at all — and candidate
		// (area, skew) pairs are probed best-first. The first pair with
		// a placeable shape is the optimum — every strictly better pair
		// was just proven empty — so a hit answers the call in a
		// handful of pruned first-fit searches instead of a mesh sweep.
		startArea, _ := largestIdeal(maxW, maxL, maxVol)
		if ub, ok := m.sweepUpperArea(maxW, maxL, maxVol); ok {
			if ub == 0 {
				return Submesh{}, false
			}
			startArea = min(startArea, ub)
		}
		if s, ok, decided := m.bestFirstProbe(startArea, maxW, maxL); decided {
			return s, ok
		}
	}

	// Phase 1: sweep the slabs for MW(d, l), then fold the capped
	// (volume, spread) optimum over (d, l). The capped width fw never
	// grows with l, so its first zero ends a depth's row of the table.
	mw := m.maxWidths(maxL, maxH)
	fw := func(d, l int) int {
		w := min(mw[d*(maxL+1)+l], maxW)
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

// largestIdeal returns the best conceivable (area, skew) under the
// caps, occupancy aside: the probe phase descends from that area, and
// the reference scans stop the moment they record a candidate this
// good, since later candidates can at best tie and first-found wins.
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

// bestFirstProbe enumerates candidate (area, skew) pairs best first —
// area descending from the given bound (at most the occupancy-blind
// ideal), skew ascending within an area — and probes each pair's one or
// two shapes (the divisor pair (b, a) and its mirror) with FirstFit.
// The first pair with a placeable shape is exactly the scan's winner: a
// free w x l rectangle whose capped candidate were wider would place a
// strictly larger-area shape, which an earlier (failed) pair already
// ruled out, so the hit shape is the candidate shape verbatim and the
// pair ordering matches the scan's (area, skew) preference. Within the
// pair, the scan's anchor-then-height order picks the row-major-first
// base, ties to the shorter shape. decided is false when the budgets
// ran out (the sweep must settle the call); an exhausted candidate
// space — no free processor — is decided as not found.
func (m *Mesh) bestFirstProbe(startArea, maxW, maxL int) (best Submesh, found, decided bool) {
	probes := probeBudget
	// Candidates never exceed the free count, which discards whole
	// swaths of the pair space for free.
	if m.freeCount == 0 {
		return Submesh{}, false, true // no free processor at all
	}
	if m.freeCount < startArea {
		startArea = m.freeCount
	}
	// Refuted shapes — a failed probe refutes every shape containing
	// one — persist on the mesh across calls until the next release
	// (refuted/noteRefuted), so GABL's tail carves inherit what the
	// first carve's probes learned.
	probe := func(w, l int) (Submesh, bool) {
		if m.refuted(w, l) {
			return Submesh{}, false
		}
		probes--
		s, ok := m.FirstFit(w, l)
		if !ok {
			m.noteRefuted(w, l)
		}
		return s, ok
	}
	pairs := &m.hist.pairs
	pairs.reset(startArea, max(maxW, maxL), startArea-areaBudget)
	for {
		a, b, ok := pairs.pop()
		if !ok {
			return Submesh{}, false, pairs.covered()
		}
		// Budget is checked per pair, never mid-pair: a hit must
		// always complete its mirror probe for the base tie-break.
		if probes <= 0 {
			return Submesh{}, false, false
		}
		var wide, tall Submesh
		wideOK, tallOK := false, false
		if b <= maxW && a <= maxL {
			wide, wideOK = probe(b, a)
		}
		if a != b && a <= maxW && b <= maxL {
			tall, tallOK = probe(a, b)
		}
		switch {
		case wideOK && (!tallOK || m.Index(wide.Base()) <= m.Index(tall.Base())):
			return wide, true, true // equal base ties to smaller l = a
		case tallOK:
			return tall, true, true
		}
	}
}

// pairHeap yields the divisor pairs a <= b <= long with area a·b in
// (cut, start] best first: area descending, then a descending (skew
// ascending) — the order of testing every short side of every area
// for divisibility, at one heap step per pair instead of O(√area)
// divisions per area. It keeps one entry per short side a, holding
// that side's largest pending long side, in a max-heap on (area, a).
type pairHeap struct {
	q   []shapePair
	cut int
}

// shapePair is a pairHeap entry: the next pair of short side a.
type shapePair struct{ area, a, b int }

// above reports whether p pops before q.
func (p shapePair) above(q shapePair) bool {
	return p.area > q.area || (p.area == q.area && p.a > q.a)
}

// reset loads the pairs of area at most start that lie above cut.
func (h *pairHeap) reset(start, long, cut int) {
	h.q, h.cut = h.q[:0], cut
	// A short side up to cut/long reaches no area above the cut.
	for a := max(1, cut/long+1); a*a <= start; a++ {
		if b := min(long, start/a); b >= a && a*b > cut {
			h.q = append(h.q, shapePair{a * b, a, b})
		}
	}
	for i := len(h.q)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop returns the best pending pair and advances its entry to the same
// short side's next smaller area, dropping the entry once b < a or the
// area falls to the cut.
func (h *pairHeap) pop() (a, b int, ok bool) {
	if len(h.q) == 0 {
		return 0, 0, false
	}
	p := &h.q[0]
	a, b = p.a, p.b
	p.b--
	p.area -= p.a
	if p.b < p.a || p.area <= h.cut {
		last := len(h.q) - 1
		h.q[0] = h.q[last]
		h.q = h.q[:last]
	}
	h.down(0)
	return a, b, true
}

// covered reports, once pop runs dry, whether the pairs spanned every
// area down to 1 — the candidate space is exhausted, so nothing fits —
// rather than stopping at the area budget's cut with areas unexamined.
func (h *pairHeap) covered() bool { return h.cut < 1 }

// down restores the heap order below entry i.
func (h *pairHeap) down(i int) {
	q := h.q
	for {
		c := 2*i + 1
		if c >= len(q) {
			return
		}
		if c+1 < len(q) && q[c+1].above(q[c]) {
			c++
		}
		if !q[c].above(q[i]) {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// maxWidths sweeps every slab of at most maxH planes row by row with
// a monotonic stack and returns the MW table, indexed d*(maxL+1)+l:
// the width of the widest free cuboid at least d deep and l long, for d
// in 1..maxH and l in 1..maxL (0 when there is none). On a torus each
// slab row is rotated into the doubled seam band (doubleRowInto) — 2W
// columns and 2L−1 rows, widths capped at W and lengths at maxL <= L —
// so wrap-crossing rectangles appear as contiguous spans; every band
// rectangle maps back to a genuine wrapped placement and vice versa
// (docs/occupancy-index.md §6).
//
// sweepRow advances the column heights as segments, one stack step per
// segment, and its records are maxima, so every slab of depth d records
// straight into row d of the table, and one suffix max per row turns
// the records into MW. A fully busy slab row zeroes every height and
// records nothing. When the next slab row is fully free, every
// rectangle this row would record recurs there with the same width and
// a length one larger (or capped equal), so its record is dominated
// and only the heights need maintaining. A fully busy slab ends the
// deepening from its base plane: deeper slabs are subsets of it. A
// slab of depth d costs d·L·W/64 word operations to build (slabOf)
// and one sweepRow pass per row; allocation-free after the scratch
// buffers exist.
func (m *Mesh) maxWidths(maxL, maxH int) []int {
	hs := &m.hist
	cols, rows := m.w, m.l
	var band []uint64
	if m.torus {
		cols, rows = 2*m.w, 2*m.l-1
		band = sizedScratch(&hs.bandMask, wordsPerRow(cols))
	}
	mw := sizedScratch(&hs.mw, (maxH+1)*(maxL+1))
	clear(mw)
	var slab []uint64
	row := func(r int) []uint64 { // band row r of the slab: row r mod L
		if r >= m.l {
			r -= m.l
		}
		return slab[r*m.wpr:][:m.wpr]
	}
	for z := 0; z < m.h; z++ {
		for d := 1; d <= min(maxH, m.h-z); d++ {
			slab = m.slabOf(z, d)
			rec, busy := mw[d*(maxL+1):(d+1)*(maxL+1)], true
			hs.resetSweep(cols)
			for r := 0; r < rows; r++ {
				words := row(r)
				if !anyBit(words) {
					hs.resetSweep(cols)
					continue
				}
				busy = false
				record := r+1 == rows || !m.rowFullyFree(row(r+1))
				if m.torus {
					m.doubleRowInto(band, words)
					words = band
				}
				hs.sweepRow(words, cols, maxL, m.w, record, rec)
			}
			if busy {
				break
			}
		}
	}
	for d := 1; d <= maxH; d++ {
		suffixMax(mw[d*(maxL+1) : (d+1)*(maxL+1)])
	}
	// Remember the sweep: until the next release, allocations only
	// shrink MW, so this table upper-bounds every later call's search
	// (sweepUpperArea) — often proving the next carve needs no sweep.
	hs.sweepMaxL, hs.sweepEpoch = maxL, m.releaseEpoch
	return mw
}

// segment is one bar of the sweep's histogram: the columns from x up
// to the next segment's x, all of free-run height h. The stack reuses
// it for an open bar: height h, spanning from x to the current column.
type segment struct{ x, h int }

// resetSweep starts a band of cols columns, every height zero: one
// segment and the sentinel.
func (hs *histScratch) resetSweep(cols int) {
	hs.seg = sizedScratch(&hs.seg, cols+1)
	hs.next = sizedScratch(&hs.next, cols+1)
	hs.stack = sizedScratch(&hs.stack, cols+1)
	hs.seg[0], hs.seg[1] = segment{0, 0}, segment{cols, 0}
}

// sweepRow advances the histogram over one band row's free words — a
// busy column's height drops to zero, a free column's grows by one up
// to maxL — in one pass over the row's runs and the previous row's
// segments. With record set, every new segment start also steps the
// monotonic stack, raising cand[h] to the widest span (clamped to
// capW, the ring width on a doubled torus band) of height h whose
// bottom edge lies on this row; a zero height flushes the stack.
//
// A segment is one bar of the histogram. Stepping the stack per column
// would add only partial widths of the same bar at the same height,
// which the bar's own record dominates, so every per-height maximum —
// and MW — is what a per-column sweep computes.
func (hs *histScratch) sweepRow(words []uint64, cols, maxL, capW int, record bool, cand []int) {
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
			if h := min(old[i].h+1, maxL); n == 0 || seg[n-1].h != h {
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
	// End-of-band sentinel: flush the surviving bars at x = cols.
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
