package mesh

import (
	"sync"
	"sync/atomic"
)

// This file implements the sharded search executor (PR 5): the
// candidate scans behind FirstFit/BestFit/LargestFree/SlideFit are
// embarrassingly parallel across base rows once the reduction is made
// deterministic, so Sharded partitions the (z, y) base space into
// contiguous stripes, scans each stripe on a worker with per-worker
// scratch, and reduces the stripe-local winners in stripe order with
// the exact serial tie-break rules. Placements are therefore
// bit-identical to the serial scans — the argument, stripe by stripe
// and search by search, lives in docs/occupancy-index.md §8. The load
// rules:
//
//   - Workers are strictly read-only on the mesh. The serial scans
//     lazily repair stale aggregates (rowMaxRescan, planeMaxRescan)
//     mid-scan; a sharded search instead repairs owner-side before the
//     fan-out — prepare repairs every stale row and plane aggregate —
//     so workers prune with plain repair-free aggregate reads that are
//     exact, and every worker bound check skips exactly the windows
//     the serial scan skips. Occupancy itself is read straight off the
//     bitboard words, which no read-only scan ever mutates.
//
//   - The owner goroutine runs stripe 0 inline and everything that
//     mutates (aggregate repairs, histogram memoization, refuted-shape
//     notes) strictly between fan-outs, so no mutation is ever
//     concurrent with a worker scan.
//
//   - Per-worker scratch (candidate slots, histogram stacks, projection
//     buffers) is lazily sized and reused forever, and the fan-out
//     path uses only pre-allocated channels and a WaitGroup, keeping
//     steady-state searches at 0 allocs/call like their serial
//     counterparts.

// shardMinCells gates the fan-out: meshes below this size finish a
// serial scan in the time a wake-up costs, so the executor runs them
// inline. The gate is invisible in results — both paths are
// bit-identical — and only steers where the work runs.
const shardMinCells = 1024

// Stripe-scan operation selectors (shardReq.kind).
const (
	opFirstFit = iota
	opBestFit
	opSweep2D
	opSweep3D
	opSlide
)

// shardReq is the current fan-out's request, written by the owner
// before the workers wake (the channel send orders it before every
// worker read).
type shardReq struct {
	kind       int
	w, l, h    int
	maxL, maxH int
	k          int // stripes in flight
}

// shardWorker is one worker's stripe assignment, result slots and
// reusable scratch. Slot i is written only by the goroutine running
// stripe i and read by the owner only after the fan-out joins.
type shardWorker struct {
	wake chan struct{}

	b0, b1 int // assigned base-row range [b0, b1)

	// Stripe-local winners, reduced by the owner in stripe order.
	sub   Submesh
	found bool
	score int

	// Reusable scratch: per-height sweep records, the monotonic stack,
	// column heights, the 3D MW(d, l) table, the word-AND projection
	// and the bitboard masks (window fit mask, torus window AND,
	// doubled seam band) — per worker, so concurrent stripes never
	// share a buffer.
	cand    []int
	heights []int
	stackS  []int
	stackH  []int
	mw3     []int
	proj    []uint64
	winMask []uint64
	rowAnd  []uint64
	band    []uint64

	// fit is the worker's BestFit scoring kernel (bestfit.go).
	fit fitScorer
}

// Sharded is the parallel Searcher: contiguous stripes of the (z, y)
// base space scanned by a pool of persistent workers, reduced with the
// serial tie-break order. It is bound to one mesh and, like the mesh,
// is not safe for concurrent use — one owner goroutine issues searches
// and mutations strictly in sequence, and the pool parallelizes only
// the read-only scan inside one search call.
type Sharded struct {
	m       *Mesh
	n       int
	workers []shardWorker

	req       shardReq
	wg        sync.WaitGroup
	minStripe atomic.Int32 // earliest stripe with a first-fit hit

	quit    chan struct{}
	started bool
	closed  bool
}

// NewSharded builds a sharded search executor with the given worker
// count bound to m. Worker goroutines start lazily on the first search
// large enough to fan out; Close releases them. A count below 2 yields
// an executor that always scans serially.
func NewSharded(m *Mesh, workers int) *Sharded {
	if workers < 1 {
		workers = 1
	}
	s := &Sharded{m: m, n: workers, quit: make(chan struct{})}
	s.workers = make([]shardWorker, workers)
	for i := range s.workers {
		s.workers[i].wake = make(chan struct{}, 1)
	}
	return s
}

// Mesh implements Searcher.
func (s *Sharded) Mesh() *Mesh { return s.m }

// Workers implements Searcher.
func (s *Sharded) Workers() int { return s.n }

// Close implements Searcher: it stops the worker goroutines. Close is
// idempotent; the executor must not search after it.
func (s *Sharded) Close() {
	if s.closed {
		return
	}
	s.closed = true
	close(s.quit)
}

// ensureStarted spawns the worker loops on first use, so an executor
// whose searches all gate to serial never owns a goroutine.
func (s *Sharded) ensureStarted() {
	if s.started {
		return
	}
	s.started = true
	for i := 1; i < s.n; i++ {
		go s.workerLoop(i)
	}
}

// workerLoop is one pool goroutine: wake, run the assigned stripe of
// the current request, report done, repeat until Close.
func (s *Sharded) workerLoop(id int) {
	w := &s.workers[id]
	for {
		select {
		case <-s.quit:
			return
		case <-w.wake:
			s.runStripe(id)
			s.wg.Done()
		}
	}
}

// fanout runs the current request's k stripes: 1..k-1 on pool workers,
// stripe 0 inline on the owner, then joins. On return every worker
// slot is settled and the owner may mutate the mesh again.
func (s *Sharded) fanout(k int) {
	s.ensureStarted()
	s.wg.Add(k - 1)
	for i := 1; i < k; i++ {
		s.workers[i].wake <- struct{}{}
	}
	s.runStripe(0)
	s.wg.Wait()
}

// assign splits B base rows into k contiguous stripes.
func (s *Sharded) assign(B, k int) {
	for i := 0; i < k; i++ {
		s.workers[i].b0, s.workers[i].b1 = i*B/k, (i+1)*B/k
	}
}

// shardCount decides how many stripes a scan over B base rows runs on:
// the full pool, or 1 (serial inline) when the pool, the base space or
// the mesh is too small to win from a fan-out.
func (s *Sharded) shardCount(B int) int {
	if s.n < 2 || B < s.n || s.m.Size() < shardMinCells {
		return 1
	}
	return s.n
}

// baseRows counts the candidate base rows of a w x l x h window scan:
// every grid row on the torus, the fitting (z, y) bases otherwise.
func (s *Sharded) baseRows(l, h int) int {
	m := s.m
	if m.torus {
		return m.l
	}
	return (m.h - h + 1) * (m.l - l + 1)
}

// prepare is the owner-side mutation pass before a window-scan
// fan-out: it repairs every stale row (and plane) aggregate, so the
// workers' repair-free bound checks prune exactly as hard as the
// serial scans' lazy repairs — and nothing in a worker ever needs to
// write. The stale scan is one bool per row; repairs amortize against
// the mutations that caused them, exactly like the serial laziness.
func (s *Sharded) prepare() {
	m := s.m
	for r := 0; r < m.rows(); r++ {
		if m.rowStale[r] {
			m.rowMaxRescan(r)
		}
	}
	for z := 0; z < m.h; z++ {
		if m.planeStale[z] {
			m.planeMaxRescan(z)
		}
	}
}

// publish records that stripe id found a first-fit hit, advancing the
// shared minimum so later stripes can abandon their scans. Only a
// strictly earlier stripe may displace a recorded one, so the winning
// stripe never aborts and the reduce is deterministic.
func (s *Sharded) publish(id int) {
	for {
		cur := s.minStripe.Load()
		if int32(id) >= cur {
			return
		}
		if s.minStripe.CompareAndSwap(cur, int32(id)) {
			return
		}
	}
}

// runStripe dispatches one stripe of the current request on the
// goroutine that owns worker slot id.
func (s *Sharded) runStripe(id int) {
	switch s.req.kind {
	case opFirstFit:
		s.firstFitStripe(id)
	case opBestFit:
		s.bestFitStripe(id)
	case opSweep2D:
		s.sweepStripe(id)
	case opSweep3D:
		s.sweepVolumeStripe(id)
	case opSlide:
		s.slideStripe(id)
	}
}

// FirstFit implements Searcher: the sharded Mesh.FirstFit3D. Stripes
// scan concurrently, later stripes abandon once an earlier one hits,
// and the earliest stripe's hit — its stripe-local first — is the
// global (z, y, x)-first base, exactly the serial result.
func (s *Sharded) FirstFit(w, l, h int) (Submesh, bool) {
	m := s.m
	if w <= 0 || l <= 0 || h <= 0 || w > m.w || l > m.l || h > m.h {
		return Submesh{}, false
	}
	B := s.baseRows(l, h)
	k := s.shardCount(B)
	if k < 2 {
		return m.FirstFit3D(w, l, h)
	}
	s.prepare()
	s.req = shardReq{kind: opFirstFit, w: w, l: l, h: h, k: k}
	s.assign(B, k)
	s.minStripe.Store(int32(k))
	s.fanout(k)
	for i := 0; i < k; i++ {
		if s.workers[i].found {
			return s.workers[i].sub, true
		}
	}
	return Submesh{}, false
}

// BestFit implements Searcher: the sharded Mesh.BestFit3D. Every
// stripe keeps its first maximal-score candidate in scan order; the
// stripe-ordered reduce with a strictly-greater comparison reproduces
// the serial "first maximum in (z, y, x) order" winner exactly.
func (s *Sharded) BestFit(w, l, h int) (Submesh, bool) {
	m := s.m
	if w <= 0 || l <= 0 || h <= 0 || w > m.w || l > m.l || h > m.h {
		return Submesh{}, false
	}
	B := s.baseRows(l, h)
	k := s.shardCount(B)
	if k < 2 {
		return m.BestFit3D(w, l, h)
	}
	s.prepare()
	s.req = shardReq{kind: opBestFit, w: w, l: l, h: h, k: k}
	s.assign(B, k)
	s.minStripe.Store(int32(k))
	s.fanout(k)
	best, bestScore, found := Submesh{}, -1, false
	for i := 0; i < k; i++ {
		wk := &s.workers[i]
		if wk.found && wk.score > bestScore {
			best, bestScore, found = wk.sub, wk.score, true
		}
	}
	return best, found
}

// LargestFree implements Searcher: the sharded Mesh.LargestFree3D. The
// probe and location phases run their FirstFit searches through the
// executor, and the O(W·L) sweeps fan out — per band-row stripe on a
// planar or torus mesh (sweep2D), per base plane on a volume
// (sweepVolume) — with the per-height/per-shape records max-reduced
// before the serial fold and tie-break run unchanged on the owner.
func (s *Sharded) LargestFree(maxW, maxL, maxH, maxVol int) (Submesh, bool) {
	m := s.m
	if maxH <= 0 || maxVol <= 0 || maxW <= 0 || maxL <= 0 {
		return Submesh{}, false
	}
	if maxW > m.w {
		maxW = m.w
	}
	if maxL > m.l {
		maxL = m.l
	}
	if m.h == 1 {
		return m.largestFreeHist(maxW, maxL, maxVol, s)
	}
	if maxH > m.h {
		maxH = m.h
	}
	return m.largestFree3D(maxW, maxL, maxH, maxVol, s)
}

// FrameSlide implements Searcher: the sharded Mesh.SlideFit. Frame
// rows are striped like first-fit base rows and reduced to the
// earliest frame in stride order.
func (s *Sharded) FrameSlide(w, l, h int) (Submesh, bool) {
	m := s.m
	if w <= 0 || l <= 0 || h <= 0 || w > m.w || l > m.l || h > m.h {
		return Submesh{}, false
	}
	ymax := m.l - l
	if m.torus {
		ymax = m.l - 1
	}
	B := ((m.h-h)/h + 1) * (ymax/l + 1)
	k := s.shardCount(B)
	if k < 2 {
		return m.SlideFit(w, l, h)
	}
	s.req = shardReq{kind: opSlide, w: w, l: l, h: h, k: k}
	s.assign(B, k)
	s.minStripe.Store(int32(k))
	s.fanout(k)
	for i := 0; i < k; i++ {
		if s.workers[i].found {
			return s.workers[i].sub, true
		}
	}
	return Submesh{}, false
}

// windowRowBlock is the repair-free blockingWindowRow: the highest
// window row whose stored aggregate rules out width w across the
// z-window, or -1. The stored bounds are exact after the owner's
// prepare pass (and valid upper bounds even without it), so workers
// prune exactly as hard as the serial scan without writing a thing.
func (m *Mesh) windowRowBlock(y, z, w, l, h int) int {
	for yy := y + l - 1; yy >= y; yy-- {
		for zz := z; zz < z+h; zz++ {
			if m.rowMax[zz*m.l+yy] < w {
				return yy
			}
		}
	}
	return -1
}

// planeBlock is the repair-free plane filter: the highest window plane
// whose stored aggregate rules out width w, or -1. Exact after the
// owner's prepare pass.
func (m *Mesh) planeBlock(z, w, h int) int {
	for zz := z + h - 1; zz >= z; zz-- {
		if m.planeMax[zz] < w {
			return zz
		}
	}
	return -1
}

// firstFitStripe scans base rows [b0, b1) for the stripe-local first
// free window, publishing a hit so later stripes can abandon. A stripe
// aborts only when a strictly earlier stripe has already hit, so the
// reduce's winner always completed its scan.
func (s *Sharded) firstFitStripe(id int) {
	s.workers[id].found = false
	s.windowStripe(id)
}

// bestFitStripe scans base rows [b0, b1) keeping the stripe's first
// maximal-score candidate, scored by the worker's own row kernel. A
// stripe whose candidate reaches the score ceiling is settled — no
// later candidate can beat it — and publishes like a first-fit hit, so
// later stripes, which can at best tie and lose the stripe-ordered
// reduce, abandon.
func (s *Sharded) bestFitStripe(id int) {
	wk := &s.workers[id]
	q := &s.req
	wk.fit.reset(s.m, q.w, q.l, q.h)
	s.windowStripe(id)
	wk.sub, wk.found = wk.fit.result()
	wk.score = wk.fit.score
}

// visitWindow hands one surviving window's fit mask to the current
// request — first-fit takes its lowest base, best-fit scores every
// base — and reports whether the stripe is settled.
func (s *Sharded) visitWindow(wk *shardWorker, mask []uint64, y, z int) bool {
	m, q := s.m, &s.req
	if q.kind == opBestFit {
		return wk.fit.scoreRow(m, mask, y, z)
	}
	if x := firstMaskBit(mask, m.w); x >= 0 {
		wk.sub, wk.found = SubAt3D(x, y, z, q.w, q.l, q.h), true
		return true
	}
	return false
}

// windowStripe walks base rows [b0, b1) of the current window request
// with the serial scans' pruning, repair-free, and builds each
// surviving window's fit mask in per-worker scratch — exactly the
// serial CandidatesRow/firstFit3D masks — for visitWindow. It stops
// when the stripe is settled (publishing it) or a strictly earlier
// stripe has settled.
func (s *Sharded) windowStripe(id int) {
	wk := &s.workers[id]
	m, q := s.m, &s.req
	switch {
	case m.torus:
		rowAnd := sizedWordScratch(&wk.rowAnd, m.wpr)
		band := sizedWordScratch(&wk.band, wordsPerRow(2*m.w))
		// The serial torusWindowSkip amortization, repair-free.
		fresh := true
		for y := wk.b0; y < wk.b1; {
			if s.minStripe.Load() < int32(id) {
				return
			}
			first := y
			if !fresh {
				first = y + q.l - 1
			}
			bad := -1
			for i := y + q.l - 1; i >= first; i-- {
				yy := i
				if yy >= m.l {
					yy -= m.l
				}
				if m.looseRowBound(yy) < q.w {
					bad = i
					break
				}
			}
			switch {
			case bad >= m.l:
				return // every later base's window wraps past the blocker too
			case bad >= 0:
				y, fresh = bad+1, true // every base in [y, bad] contains row bad
				continue
			}
			fresh = false
			if m.torusFitMaskInto(band, rowAnd, y, q.w, q.l) && s.visitWindow(wk, band, y, 0) {
				s.publish(id)
				return
			}
			y++
		}
	case m.h == 1:
		// The serial nextWindowRow window amortization, repair-free: a
		// fresh window checks all l rows top-down; once a window was
		// clean, only the newly entered bottom row needs checking.
		mask := sizedWordScratch(&wk.winMask, m.wpr)
		fresh := true
		for y := wk.b0; y < wk.b1; {
			if s.minStripe.Load() < int32(id) {
				return
			}
			if fresh {
				if bad := m.windowRowBlock(y, 0, q.w, q.l, 1); bad >= 0 {
					y = bad + 1
					continue
				}
			} else if m.rowMax[y+q.l-1] < q.w {
				y += q.l
				fresh = true
				continue
			}
			fresh = false
			if m.planarFitMaskInto(mask, y, 0, q.w, q.l, 1) && s.visitWindow(wk, mask, y, 0) {
				s.publish(id)
				return
			}
			y++
		}
	default:
		mask := sizedWordScratch(&wk.winMask, m.wpr)
		ny := m.l - q.l + 1
		for b := wk.b0; b < wk.b1; {
			if s.minStripe.Load() < int32(id) {
				return
			}
			z, y := b/ny, b%ny
			if zBad := m.planeBlock(z, q.w, q.h); zBad >= 0 {
				b = (zBad + 1) * ny
				continue
			}
			if bad := m.windowRowBlock(y, z, q.w, q.l, q.h); bad >= 0 {
				if bad+1 >= ny {
					b = (z + 1) * ny
				} else {
					b = z*ny + bad + 1
				}
				continue
			}
			if m.planarFitMaskInto(mask, y, z, q.w, q.l, q.h) && s.visitWindow(wk, mask, y, z) {
				s.publish(id)
				return
			}
			b++
		}
	}
}

// slideStripe probes the stride-pattern frames of frame rows [b0, b1)
// for the stripe-local first free frame, with the same early-abort
// protocol as firstFitStripe.
func (s *Sharded) slideStripe(id int) {
	wk := &s.workers[id]
	wk.found = false
	m, q := s.m, &s.req
	ymax, xmax := m.l-q.l, m.w-q.w
	if m.torus {
		ymax, xmax = m.l-1, m.w-1
	}
	nfy := ymax/q.l + 1
	for b := wk.b0; b < wk.b1; b++ {
		if s.minStripe.Load() < int32(id) {
			return
		}
		z, y := (b/nfy)*q.h, (b%nfy)*q.l
		for x := 0; x <= xmax; x += q.w {
			sub := SubAt3D(x, y, z, q.w, q.l, q.h)
			if m.SubFree(sub) {
				wk.sub, wk.found = sub, true
				s.publish(id)
				return
			}
		}
	}
}

// sweep2D runs the maximal-rectangle sweep behind the planar (and
// torus) LargestFree across band-row stripes and reduces the
// per-height records: each stripe seeds its column heights from the
// min(maxL, b0) band rows above it — heights are capped at maxL, so
// that lookback reproduces them exactly — and records the maximal
// rectangles whose bottom edge lies in its stripe. MW is a max over
// bottom rows, so the element-wise max of the stripe records followed
// by the serial suffix-max is exactly the serial table, which is then
// cached on the mesh with the same release-epoch memoization.
func (s *Sharded) sweep2D(maxL int) []int {
	m := s.m
	rows := m.l
	if m.torus {
		rows = 2*m.l - 1
	}
	k := s.shardCount(rows)
	if k < 2 {
		return m.maxWidthByHeight(maxL)
	}
	s.req = shardReq{kind: opSweep2D, maxL: maxL, k: k}
	s.assign(rows, k)
	s.fanout(k)
	cand := sizedScratch(&m.hist.byH, maxL+1)
	clear(cand)
	for i := 0; i < k; i++ {
		wc := s.workers[i].cand
		for h := 1; h <= maxL; h++ {
			if wc[h] > cand[h] {
				cand[h] = wc[h]
			}
		}
	}
	for h := maxL - 1; h >= 1; h-- {
		if cand[h] < cand[h+1] {
			cand[h] = cand[h+1]
		}
	}
	m.hist.sweepMaxL = maxL
	m.hist.sweepEpoch = m.releaseEpoch
	return cand
}

// sweepStripe is one worker's share of sweep2D: seed the heights, then
// run the serial sweep body — including its degenerate-row shortcuts,
// whose suppressed records recur under a later bottom row that some
// stripe records — over band rows [b0, b1), leaving the raw per-height
// records (no suffix-max) in the worker's cand slot. Band rows come
// off the bitboard exactly as in the serial maxWidthByHeight: planar
// rows verbatim, torus rows rotated into the worker's doubled seam
// band.
func (s *Sharded) sweepStripe(id int) {
	wk := &s.workers[id]
	m, q := s.m, &s.req
	maxL := q.maxL
	cols, rows := m.w, m.l
	var band []uint64
	if m.torus {
		cols, rows = 2*m.w, 2*m.l-1
		band = sizedWordScratch(&wk.band, wordsPerRow(cols))
	}
	heights := sizedScratch(&wk.heights, cols)
	stackS := sizedScratch(&wk.stackS, cols+1)
	stackH := sizedScratch(&wk.stackH, cols+1)
	cand := sizedScratch(&wk.cand, maxL+1)
	clear(cand)
	// Seed each column height with its up-run: the consecutive free
	// band rows ending just above the stripe, capped at maxL (the
	// serial heights saturate there) and at the band floor. Column-wise
	// with an early stop at the first busy cell — the sweep only runs
	// on fragmented meshes (the probe phase settles sparse ones), so
	// up-runs are short and the seed costs far below its O(cols·maxL)
	// bound.
	for x := 0; x < cols; x++ {
		xr := x
		if xr >= m.w {
			xr -= m.w
		}
		h := 0
		for r := wk.b0 - 1; r >= 0 && h < maxL; r-- {
			ry := r
			if ry >= m.l {
				ry -= m.l
			}
			if !m.freeBitAt(ry, xr) {
				break
			}
			h++
		}
		heights[x] = h
	}
	for r := wk.b0; r < wk.b1; r++ {
		ry := r
		if ry >= m.l {
			ry -= m.l
		}
		// The serial sweep's degenerate-row shortcuts, verbatim: a fully
		// busy row zeroes the heights; a row whose successor band row is
		// fully free has every record dominated there (the successor's
		// stripe makes them), so only the heights advance.
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
}

// sweepVolume computes the 3D search's MW(d, l) table across the pool:
// (base plane, depth) pairs are independent sweeps, so base planes are
// dealt round-robin to the workers and the per-shape records
// max-reduced — MW is a max over base planes, so the reduced table is
// exactly the serial one.
func (s *Sharded) sweepVolume(maxL, maxH int) []int {
	m := s.m
	k := s.n
	if k > m.h {
		k = m.h
	}
	if k < 2 || m.Size() < shardMinCells {
		return m.sweepVolumeSerial(maxL, maxH)
	}
	s.req = shardReq{kind: opSweep3D, maxL: maxL, maxH: maxH, k: k}
	s.fanout(k)
	mw := sizedScratch(&m.hist.mw3, (maxH+1)*(maxL+1))
	clear(mw)
	for i := 0; i < k; i++ {
		wm := s.workers[i].mw3
		for j := range mw {
			if wm[j] > mw[j] {
				mw[j] = wm[j]
			}
		}
	}
	return mw
}

// sweepVolumeStripe is one worker's share of sweepVolume: the base
// planes congruent to its id modulo the stripe count, swept into its
// local MW(d, l) table with its own projection and stack scratch —
// the same sweepVolumeInto body the serial path runs.
func (s *Sharded) sweepVolumeStripe(id int) {
	wk := &s.workers[id]
	m, q := s.m, &s.req
	mw := sizedScratch(&wk.mw3, (q.maxH+1)*(q.maxL+1))
	clear(mw)
	proj := sizedWordScratch(&wk.proj, m.l*m.wpr)
	cand := sizedScratch(&wk.cand, q.maxL+1)
	heights := sizedScratch(&wk.heights, m.w)
	stackS := sizedScratch(&wk.stackS, m.w+1)
	stackH := sizedScratch(&wk.stackH, m.w+1)
	m.sweepVolumeInto(id, q.k, q.maxL, q.maxH, mw, proj, cand, heights, stackS, stackH)
}

// ff2 routes a planar FirstFit through the executor when one is
// driving the search (the constrained-largest probe and location
// phases) and serially otherwise; results are identical either way.
func ff2(m *Mesh, sh *Sharded, w, l int) (Submesh, bool) {
	if sh != nil {
		return sh.FirstFit(w, l, 1)
	}
	return m.FirstFit(w, l)
}

// ff3 is ff2 for the volumetric searches.
func ff3(m *Mesh, sh *Sharded, w, l, h int) (Submesh, bool) {
	if sh != nil {
		return sh.FirstFit(w, l, h)
	}
	return m.firstFit3D(w, l, h)
}
