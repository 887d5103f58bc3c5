package mesh

// This file implements the histogram-based constrained-largest search
// behind LargestFree. The per-anchor downward-growth scan it replaces
// (kept in the tests as largestFreeScan / torusLargestFreeScan, the
// differential reference) is O(W·L·maxL) worst case even after pruning;
// the sweep here is O(W·L): one maximal-rectangle-in-histogram pass
// per row band over column heights derived from the bitboard, O(W·L)
// on the planar mesh and O(W·L) over the doubled seam band on the
// torus.
//
// The search must return exactly what the scan returns — max capped
// area, then squarest, then row-major-first base, first-found winning
// remaining ties — so it runs in two phases built on one reduction (the
// equivalence argument lives in docs/occupancy-index.md §6):
//
//  1. The sweep computes MW(l), the widest free (wrap-aware on a torus)
//     rectangle of each height l <= maxL. Every capped candidate of the
//     scan at height l has width min(minRun, maxW, maxArea/l) — at most
//     fw(l) = min(MW(l), maxW, maxArea/l) — so the best capped
//     (area, skew) pair over all anchors is the best over l of
//     (fw(l)·l, |fw(l)−l|), an O(maxL) fold.
//  2. A scan candidate ties the winning pair only if its anchor admits
//     a free fw(l) x l rectangle for one of the winning heights (at
//     most two: l·(l±skew) = area each has one root), so the
//     row-major-first tying anchor is the row-major-first FirstFit
//     base among those shapes — the searches the index already has.
//
// Phase 0 short-circuits both: candidate (area, skew) pairs are probed
// best-first, descending from the occupancy-blind ideal (largestIdeal),
// and the first pair with a placeable shape is the answer — the sweep
// never runs, the common case for lightly loaded meshes and, through
// the release-epoch memoization below, for the tail carves of a GABL
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
	heights []int // column free-run heights, one per (doubled) column
	stackS  []int // monotonic stack: span start positions
	stackH  []int // monotonic stack: bar heights
	byH     []int // MW of the last sweep, indexed by height 1..sweepMaxL

	sweepMaxL  int    // heights byH covers; 0 = no sweep cached
	sweepEpoch uint64 // release epoch byH was swept at

	failed      [maxFailedShapes][2]int // Pareto frontier of refuted shapes
	nFailed     int
	failedEpoch uint64

	// Bitboard word scratch (bitboard.go): the window fit mask of
	// CandidatesRow, the torus window AND, and the doubled seam band
	// shared by the torus CandidatesRow and the torus sweep — safe to
	// share because the probe phase's candidate enumerations always
	// complete before a sweep starts (largestFreeHist runs its phases
	// strictly in sequence).
	winMask  []uint64
	rowAnd   []uint64
	bandMask []uint64

	// 3D-search scratch (volume.go): the word-AND projected plane, the
	// MW(d, l) table and the per-projection sweep records. A mesh only
	// ever exercises one family — the planar buffers above on depth 1,
	// these below on depth > 1.
	proj  []uint64
	mw3   []int
	cand3 []int

	// fit is the BestFit searches' scoring kernel (bestfit.go),
	// allocated by the first BestFit: held by value it would grow every
	// mesh by a few hundred bytes that most strategies never touch.
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

// sweepUpperArea bounds the best capped (area) achievable under the
// caps using the cached MW table: while no release intervened, MW only
// shrinks, so the cached value bounds the current one from above (for
// heights past the cached range, MW's monotonicity in height extends
// the last entry). Returns area upper bound and whether a cache was
// usable.
func (m *Mesh) sweepUpperArea(maxW, maxL, maxArea int) (int, bool) {
	h := &m.hist
	if h.sweepMaxL == 0 || h.sweepEpoch != m.releaseEpoch {
		return 0, false
	}
	ub := 0
	for l := 1; l <= maxL; l++ {
		w := h.byH[min(l, h.sweepMaxL)]
		if w == 0 {
			break // suffix max: taller is never wider
		}
		if w > maxW {
			w = maxW
		}
		if w*l > maxArea {
			w = maxArea / l
		}
		if w*l > ub {
			ub = w * l
		}
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

// largestFreeHist is the histogram-backed LargestFree. Caps must be
// positive and already clamped to the mesh sides.
func (m *Mesh) largestFreeHist(maxW, maxL, maxArea int) (Submesh, bool) {
	// The cached sweep bounds this call's best area from above while no
	// release intervened; zero means no candidate can exist under the
	// caps at all.
	startArea, _ := largestIdeal(maxW, maxL, maxArea)
	if ub, ok := m.sweepUpperArea(maxW, maxL, maxArea); ok {
		if ub == 0 {
			return Submesh{}, false
		}
		if ub < startArea {
			startArea = ub
		}
	}

	// Phase 0: probe candidate (area, skew) pairs best-first. The first
	// pair with a placeable shape is the optimum — every strictly
	// better pair was just proven empty — so a hit answers the call in
	// a handful of pruned first-fit searches instead of a mesh sweep.
	if s, ok, decided := m.bestFirstProbe(startArea, maxW, maxL); decided {
		return s, ok
	}

	// Phase 1: sweep the row bands for MW(l), then fold the capped
	// (area, skew) optimum over heights.
	mw := m.maxWidthByHeight(maxL)
	bestArea, bestSkew := 0, 0
	for l := 1; l <= maxL; l++ {
		w := mw[l]
		if w == 0 {
			break // MW is a suffix max: taller rectangles only narrower
		}
		if w > maxW {
			w = maxW
		}
		if w*l > maxArea {
			w = maxArea / l
		}
		if w == 0 {
			continue
		}
		area, skew := w*l, abs(w-l)
		if area > bestArea || (area == bestArea && skew < bestSkew) {
			bestArea, bestSkew = area, skew
		}
	}
	if bestArea == 0 {
		return Submesh{}, false
	}

	// Phase 2: the scan's winner is the row-major-first anchor
	// admitting a winning shape.
	s, ok := m.firstShapeBase(bestArea, bestSkew, maxW, maxL, maxArea, mw)
	if !ok {
		// MW(l) >= fw(l) guarantees a free fw(l) x l rectangle exists
		// for every winning height; FirstFit not finding one means the
		// sweep and the search disagree on occupancy.
		panic("mesh: histogram sweep found no base for its best shape")
	}
	return s, true
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
	probes, areas := probeBudget, areaBudget
	long := maxW
	if maxL > long {
		long = maxL
	}
	// Candidates never exceed the free count, and no shape is wider
	// than the widest free run of any row — both read straight off the
	// index and discard whole swaths of the pair space for free.
	if m.freeCount < startArea {
		startArea = m.freeCount
	}
	// The repair-free row bound (looseRowBound) is all a filter needs —
	// repairing every stale row here would cost the O(W·L) this phase
	// exists to avoid.
	widestRun := 0
	for y := 0; y < m.l; y++ {
		if b := m.looseRowBound(y); b > widestRun {
			widestRun = b
		}
	}
	if widestRun == 0 {
		return Submesh{}, false, true // no free processor at all
	}
	// Refuted shapes — a failed probe refutes every shape containing
	// one — persist on the mesh across calls until the next release
	// (refuted/noteRefuted), so GABL's tail carves inherit what the
	// first carve's probes learned.
	probe := func(w, l int) (Submesh, bool) {
		if w > widestRun || m.refuted(w, l) {
			return Submesh{}, false
		}
		probes--
		s, ok := m.FirstFit(w, l)
		if !ok {
			m.noteRefuted(w, l)
		}
		return s, ok
	}
	// The enumeration descends one area at a time, so its integer root
	// follows along in amortized O(1) instead of a fresh Newton run.
	root := intSqrt(startArea)
	for area := startArea; area >= 1; area-- {
		for root*root > area {
			root--
		}
		if areas--; areas < 0 {
			return Submesh{}, false, false
		}
		// Shapes of this area within the caps need a short side of at
		// least area/long; most areas have none and cost O(1).
		aMin := (area + long - 1) / long
		for a := root; a >= aMin; a-- {
			if area%a != 0 {
				continue
			}
			// Budget is checked per pair, never mid-pair: a hit must
			// always complete its mirror probe for the base tie-break.
			if probes <= 0 {
				return Submesh{}, false, false
			}
			b := area / a
			var wide, tall Submesh
			wideOK, tallOK := false, false
			if b <= maxW && a <= maxL {
				wide, wideOK = probe(b, a)
			}
			if a != b && a <= maxW && b <= maxL {
				tall, tallOK = probe(a, b)
			}
			switch {
			case wideOK && (!tallOK || wide.Y1 < tall.Y1 ||
				(wide.Y1 == tall.Y1 && wide.X1 <= tall.X1)):
				return wide, true, true // equal base ties to smaller l = a
			case tallOK:
				return tall, true, true
			}
		}
	}
	return Submesh{}, false, true // candidate space exhausted: no fit
}

// intSqrt returns the integer square root of n >= 0.
func intSqrt(n int) int {
	if n <= 0 {
		return 0
	}
	r := n
	x := (r + 1) / 2
	for x < r {
		r = x
		x = (x + n/x) / 2
	}
	return r
}

// firstShapeBase returns the row-major-first base of the at-most-two
// capped shapes achieving exactly (area, skew): heights l whose capped
// width fw(l) = min(mw[l], maxW, maxArea/l) satisfies fw(l)·l == area
// and |fw(l)−l| == skew. Ties between shapes at the same base go to
// the smaller height, matching the scan's within-anchor order.
func (m *Mesh) firstShapeBase(area, skew, maxW, maxL, maxArea int, mw []int) (Submesh, bool) {
	var best Submesh
	found := false
	for l := 1; l <= maxL; l++ {
		w := maxW
		if mw[l] < w {
			w = mw[l]
		}
		if w*l > maxArea {
			w = maxArea / l
		}
		if w == 0 || w*l != area || abs(w-l) != skew {
			continue
		}
		s, ok := m.FirstFit(w, l)
		if !ok {
			continue
		}
		if !found || s.Y1 < best.Y1 || (s.Y1 == best.Y1 && s.X1 < best.X1) {
			best, found = s, true
		}
	}
	return best, found
}

// maxWidthByHeight sweeps every row band with a monotonic stack and
// returns MW indexed by height: MW[l] is the width of the widest free
// rectangle of height exactly-or-more l, for l in 1..maxL (MW[l] == 0
// when no free rectangle is l tall). On a torus the sweep runs over the
// doubled seam band — 2W−wide columns and 2L−1 rows, widths capped at W
// and heights at maxL <= L — so wrap-crossing rectangles appear as
// contiguous spans; every doubled-band rectangle maps back to a genuine
// wrapped placement and vice versa (docs/occupancy-index.md §6).
//
// Rows come off the bitboard: a planar band row is its free words
// verbatim, a torus band row is one word rotation into the doubled
// seam band (doubleRowInto), and sweepRowWords advances the heights
// and the stack run by run instead of column by column — identical
// records to the retained per-column loop (§9). O(W·L),
// allocation-free after the scratch buffers exist.
func (m *Mesh) maxWidthByHeight(maxL int) []int {
	cols, rows := m.w, m.l
	var band []uint64
	if m.torus {
		cols, rows = 2*m.w, 2*m.l-1
		band = sizedWordScratch(&m.hist.bandMask, wordsPerRow(cols))
	}
	heights := sizedScratch(&m.hist.heights, cols)
	stackS := sizedScratch(&m.hist.stackS, cols+1)
	stackH := sizedScratch(&m.hist.stackH, cols+1)
	cand := sizedScratch(&m.hist.byH, maxL+1)
	clear(heights)
	clear(cand)
	for r := 0; r < rows; r++ {
		ry := r
		if ry >= m.l {
			ry -= m.l
		}
		// Degenerate rows shortcut the stack. A fully busy row — the
		// aggregate bounds the widest run from above even when stale —
		// zeroes every height and records nothing. And when the NEXT
		// band row is fully free (a handful of word compares,
		// rowFullyFree), every rectangle this row would record recurs
		// there with the same width and a height one larger (or capped
		// equal), so its record is dominated through the suffix max —
		// only the heights need maintaining here.
		if m.rowMax[ry] == 0 {
			clear(heights)
			continue
		}
		words := m.rowWords(ry)
		if m.torus {
			m.doubleRowInto(band, words)
			words = band
		}
		if r+1 < rows {
			ny := r + 1
			if ny >= m.l {
				ny -= m.l
			}
			if m.rowFullyFree(ny) {
				bumpHeightsWords(words, cols, maxL, heights)
				continue
			}
		}
		sweepRowWords(words, cols, maxL, m.w, heights, stackS, stackH, cand)
	}
	// A rectangle of height h contains one of every lesser height, so
	// MW is the suffix max of the per-height records.
	for h := maxL - 1; h >= 1; h-- {
		if cand[h] < cand[h+1] {
			cand[h] = cand[h+1]
		}
	}
	// Remember the sweep: until the next release, allocations only
	// shrink MW, so this table upper-bounds every later call's search
	// (sweepUpperArea) — often proving the next carve needs no sweep.
	m.hist.sweepMaxL = maxL
	m.hist.sweepEpoch = m.releaseEpoch
	return cand
}

// sizedScratch returns *buf with at least n elements, growing it (and
// keeping the growth for future calls) only when needed.
func sizedScratch(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}
