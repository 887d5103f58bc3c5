package mesh

import "fmt"

// Mesh is the occupancy model of a W x L x H mesh: which processors are
// allocated, how many are free, and the searches over the free set. A
// 2D mesh is the H == 1 special case, and every 2D code path is
// unchanged on it — the depth axis generalizes the tables without
// disturbing the planar index. It is not safe for concurrent use; a
// simulation owns one mesh.
//
// Occupancy is indexed incrementally — there is no per-decision
// full-table rebuild anywhere. The bitboard is the single authoritative
// occupancy store; two lazy aggregates ride on top of it (rows are
// addressed by the plane-row index r = z·L + y, so a 2D mesh has r == y
// and the planar descriptions below read verbatim):
//
//   - freeW is the word-parallel bitboard (bitboard.go): wpr uint64
//     words per plane-row, bit x set iff the cell is free, tail bits
//     past W always zero. Mutations flip it span by span (markRowSpan)
//     or bit by bit, and every query derives from it on demand:
//     Busy(c) is one bit test, cuboid busy/free counts are
//     math/bits.OnesCount64 over masked words (busyRowSpanBits,
//     scanBusyBox), freeness probes are masked compares (rowFreeSpan),
//     and free-run lookups — CandidatesRow fit masks, FreeSeq,
//     rowMaxRescan, the torus seam runs — are trailing-zero scans
//     (maskNextFree/maskNextBusy, runAtBits). A whole-row count is
//     W/64 popcounts, so nothing else needs maintaining for counting.
//
//   - rowMax[r] upper-bounds the widest free run of row r, letting the
//     searches discard whole candidate rows in O(1). Mutations settle
//     it from the words in O(1) per touched row span: a freed span's
//     containing run is two trailing-zero hops (aggSpanFree), a busy
//     flip that carves the recorded run marks the row stale
//     (aggSpanBusy), and searches — never mutations — repair stale
//     rows by rescanning the words (rowMaxRescan). It is exact unless
//     rowStale[r].
//
//   - planeMax[z] upper-bounds the widest free run anywhere in plane z
//     — the z-axis aggregate stacked over the per-row ones. The 3D
//     searches discard whole candidate planes with it (volume.go). It
//     is maintained as a max on row-aggregate increases; a search
//     repairing a row downward marks the plane stale (planeStale), and
//     only searches re-derive stale planes from the row aggregates.
//
// The pre-bitboard structures — the per-cell busy map, the eager
// rightRun table and the journaled far-corner summed-volume table — are
// demoted to oracle mode (oracle.go): nil and never touched in
// production, allocated and maintained in lockstep when EnableOracle or
// the meshoracle build tag arms the per-mutation differentials the
// tests and the fuzz target run.
//
// The invariants (checked word-derived after every mutation, and
// against the independently maintained oracle tables when oracle mode
// is on — index_test.go) are, for all in-range x and plane-rows r:
//
//	freeW bit x of plane-row r set <=> the cell is free; bits >= w zero
//	freeCount == Σ OnesCount64 over all words
//	rowMax[r] >= the widest free run of row r, equality unless rowStale[r]
//	planeMax[z] >= max over rows r of plane z of rowMax[r], equality unless planeStale[z]
//	oracle mode: busy[r*w+x] <=> bit clear; rightRun is the exact run
//	table; sat + Σ pending overlaps == Σ busy per far-corner quadrant
type Mesh struct {
	w, l, h int

	// freeW is the authoritative bitboard: wpr words per plane-row,
	// bit = free (see bitboard.go for the layout and tail rules).
	freeW []uint64
	wpr   int

	// torus selects wrap-around occupancy semantics for queries and
	// searches: the index tables stay planar either way (see torus.go),
	// so every maintenance invariant above holds verbatim on both
	// topologies. The torus query layer is two-dimensional; NewTorus
	// rejects depth > 1.
	torus bool

	freeCount int

	// rowMax[r] bounds the widest free run in plane-row r — the
	// row-level aggregate of the bitboard words. A search for width w
	// skips every window containing a row with rowMax < w without
	// probing a single base. rowMaxPos[r] is the base of a run
	// achieving it. A mutation that misses the recorded run cannot have
	// shrunk it, so the aggregate update is O(1); carving into it
	// leaves the old value behind as a valid upper bound and marks the
	// row stale (rowStale), and only searches — never mutations —
	// re-derive stale rows, so mutation-only strategies pay nothing for
	// exactness they do not use.
	rowMax    []int
	rowMaxPos []int
	rowStale  []bool
	// planeMax[z] is the z-axis aggregate: an upper bound on the widest
	// free run in plane z, maintained exactly like rowMax one level up
	// (see the type comment and volume.go).
	planeMax   []int
	planeStale []bool

	// Oracle mode (oracle.go): the demoted occupancy structures, nil
	// and unmaintained in production. busy is the per-cell map the
	// index originally ran on, rightRun the eager run table, sat the
	// journaled far-corner summed-volume table with its bounded pending
	// journal. EnableOracle (or the meshoracle build tag) allocates
	// them, rebuilds them from the words, and arms their maintenance on
	// every mutation so the tests' differentials can compare.
	oracle   bool
	busy     []bool // plane-row-major: index = (z*l + y)*w + x
	rightRun []int
	sat      []int // (w+1) x (l+1) x (h+1)
	pending  []satDelta
	satCap   int // journal bound, scaled to the mesh (see New)

	// hist holds the reusable buffers of the histogram-based
	// constrained-largest searches (histogram.go, volume.go); lazily
	// sized, never part of the occupancy state (Clone starts fresh).
	hist histScratch
	// releaseEpoch counts mutations that freed processors. The
	// constrained-largest search memoizes alloc-monotone facts (failed
	// shapes, sweep upper bounds) against it: allocations preserve
	// them, any release invalidates (histogram.go).
	releaseEpoch uint64

	// pinned marks failed processors (fault.go): pinned cells are busy
	// in every table above, and the release paths refuse to free them.
	// overlay marks the pinned cells whose failing flip found a live
	// allocation underneath — their release clears the overlay and
	// leaves the cell busy. Both are nil until the first Fail, so
	// fault-free meshes pay nothing.
	pinned       []bool
	overlay      []bool
	pinnedCount  int
	overlayCount int
	// freed is releaseSubPinnedAware's list of the cells it frees,
	// reused across calls; nil until the first release over a pin.
	freed []Coord
}

// satDelta is one occupancy change not yet folded into sat.
type satDelta struct {
	x1, y1, z1, x2, y2, z2 int
	sign                   int // +1 allocate, -1 release
}

// New returns an empty (fully free) w x l mesh of depth 1 — the paper's
// 2D fabric.
func New(w, l int) *Mesh { return New3D(w, l, 1) }

// New3D returns an empty (fully free) w x l x h mesh. Depth 1 is the 2D
// mesh; every query and search degenerates to the planar index on it.
func New3D(w, l, h int) *Mesh {
	if w <= 0 || l <= 0 || h <= 0 {
		panic(fmt.Sprintf("mesh: invalid dimensions %dx%dx%d", w, l, h))
	}
	m := &Mesh{
		w:          w,
		l:          l,
		h:          h,
		freeW:      make([]uint64, wordsPerRow(w)*l*h),
		wpr:        wordsPerRow(w),
		freeCount:  w * l * h,
		rowMax:     make([]int, l*h),
		rowMaxPos:  make([]int, l*h),
		rowStale:   make([]bool, l*h),
		planeMax:   make([]int, h),
		planeStale: make([]bool, h),
		// Scaling the oracle journal bound with the mesh keeps the
		// amortized overflow cost at O(size)/(size/4) ≈ a few operations
		// per mutation for oracle-mode builds; production never journals.
		satCap: max(64, w*l*h/4),
	}
	m.resetTables()
	if oracleDefault {
		m.EnableOracle()
	}
	return m
}

// rows returns the number of plane-rows, l*h.
func (m *Mesh) rows() int { return m.l * m.h }

// rowIdx maps (y, z) to the plane-row index.
func (m *Mesh) rowIdx(y, z int) int { return z*m.l + y }

// resetTables sets the index to the all-free state: every word filled,
// aggregates at W, and — in oracle mode — the oracle tables rebuilt to
// match.
func (m *Mesh) resetTables() {
	for r := 0; r < m.rows(); r++ {
		fillRowFree(m.rowWords(r), m.w)
		m.rowMax[r] = m.w
		m.rowMaxPos[r] = 0
		m.rowStale[r] = false
	}
	for z := 0; z < m.h; z++ {
		m.planeMax[z] = m.w
		m.planeStale[z] = false
	}
	if m.oracle {
		m.syncOracle()
	}
}

// queueSAT journals one cuboid's occupancy delta for the oracle SAT;
// the caller must have applied the busy flips already. The append is
// O(1); a full journal folds by one recompute instead — which, because
// the busy map is current, covers the new delta too, so nothing is
// appended and the recompute cost is amortized over at least satCap
// mutations. Oracle mode only.
func (m *Mesh) queueSAT(x1, y1, z1, x2, y2, z2, sign int) {
	if len(m.pending) >= m.satCap {
		m.recomputeSAT()
		return
	}
	m.pending = append(m.pending, satDelta{x1, y1, z1, x2, y2, z2, sign})
}

// drainSAT folds every journaled delta into the oracle SAT. A handful
// of deltas fold individually (each touches only the block x <= x2,
// y <= y2, z <= z2); more than that and one recompute pass is cheaper.
// Only the oracle-mode differentials read the table, so only they
// drain; no production query touches the journal.
func (m *Mesh) drainSAT() {
	if len(m.pending) <= 4 {
		for _, d := range m.pending {
			m.foldSAT(d)
		}
		m.pending = m.pending[:0]
		return
	}
	m.recomputeSAT()
}

// foldSAT applies one cuboid delta: the SAT entry at (x,y,z) counts
// the quadrant X >= x, Y >= y, Z >= z, so it gains sign times the
// overlap of the cuboid with that quadrant — zero beyond (x2, y2, z2).
func (m *Mesh) foldSAT(d satDelta) {
	strideY := m.w + 1
	rw := d.x2 - d.x1 + 1
	rl := d.y2 - d.y1 + 1
	for z := 0; z <= d.z2; z++ {
		rd := d.z2 + 1 - z
		if z < d.z1 {
			rd = d.z2 - d.z1 + 1
		}
		for y := 0; y <= d.y2; y++ {
			rh := d.y2 + 1 - y
			if y < d.y1 {
				rh = rl
			}
			base := (z*(m.l+1) + y) * strideY
			full := d.sign * rd * rh * rw
			for x := 0; x <= d.x1; x++ {
				m.sat[base+x] += full
			}
			step := d.sign * rd * rh
			acc := full - step
			for x := d.x1 + 1; x <= d.x2; x++ {
				m.sat[base+x] += acc
				acc -= step
			}
		}
	}
}

// recomputeSAT rebuilds the SAT from the busy map in one pass and
// clears the journal. Reached only through journal overflow or bulk
// folds — never per allocation decision.
func (m *Mesh) recomputeSAT() {
	strideY := m.w + 1
	strideZ := strideY * (m.l + 1)
	for z := m.h - 1; z >= 0; z-- {
		for y := m.l - 1; y >= 0; y-- {
			for x := m.w - 1; x >= 0; x-- {
				b := 0
				if m.busy[(z*m.l+y)*m.w+x] {
					b = 1
				}
				i := z*strideZ + y*strideY + x
				m.sat[i] = b +
					m.sat[i+strideZ] + m.sat[i+strideY] + m.sat[i+1] -
					m.sat[i+strideZ+strideY] - m.sat[i+strideZ+1] - m.sat[i+strideY+1] +
					m.sat[i+strideZ+strideY+1]
			}
		}
	}
	m.pending = m.pending[:0]
}

// W returns the mesh width.
func (m *Mesh) W() int { return m.w }

// L returns the mesh length.
func (m *Mesh) L() int { return m.l }

// H returns the mesh depth (number of planes); 1 for a 2D mesh.
func (m *Mesh) H() int { return m.h }

// Size returns the total number of processors.
func (m *Mesh) Size() int { return m.w * m.l * m.h }

// FreeCount returns the number of unallocated processors.
func (m *Mesh) FreeCount() int { return m.freeCount }

// BusyCount returns the number of allocated processors.
func (m *Mesh) BusyCount() int { return m.Size() - m.freeCount }

// InBounds reports whether c is a processor of this mesh.
func (m *Mesh) InBounds(c Coord) bool {
	return c.X >= 0 && c.X < m.w && c.Y >= 0 && c.Y < m.l && c.Z >= 0 && c.Z < m.h
}

// Index maps a coordinate to its plane-row-major index.
func (m *Mesh) Index(c Coord) int { return (c.Z*m.l+c.Y)*m.w + c.X }

// CoordOf maps a plane-row-major index back to a coordinate.
func (m *Mesh) CoordOf(i int) Coord {
	return Coord{X: i % m.w, Y: (i / m.w) % m.l, Z: i / (m.w * m.l)}
}

// Busy reports whether processor c is allocated: one bit test.
func (m *Mesh) Busy(c Coord) bool { return !m.freeBitAt(m.rowIdx(c.Y, c.Z), c.X) }

// scanBusyBox counts the busy cells of the inclusive cuboid straight
// off the bitboard: one masked popcount pass per plane-row
// (busyRowSpanBits), W/64 word operations per row. The cuboid is
// assumed in bounds and valid.
func (m *Mesh) scanBusyBox(x1, y1, z1, x2, y2, z2 int) int {
	n := 0
	for z := z1; z <= z2; z++ {
		for y := y1; y <= y2; y++ {
			n += m.busyRowSpanBits(m.rowIdx(y, z), x1, x2)
		}
	}
	return n
}

// scanBusyRect is scanBusyBox restricted to plane 0, kept for the 2D
// internals.
func (m *Mesh) scanBusyRect(x1, y1, x2, y2 int) int {
	return m.scanBusyBox(x1, y1, 0, x2, y2, 0)
}

// boxBusy is the cuboid busy count — an alias for the word popcount
// scan now that the bitboard is authoritative (the SAT dispatch it used
// to route to lives on only in oracle mode).
func (m *Mesh) boxBusy(x1, y1, z1, x2, y2, z2 int) int {
	return m.scanBusyBox(x1, y1, z1, x2, y2, z2)
}

// rectBusy is boxBusy restricted to plane 0 — the form the planar query
// layer and the torus layer run on (depth-1 meshes only, where plane 0
// is the whole mesh).
func (m *Mesh) rectBusy(x1, y1, x2, y2 int) int {
	return m.scanBusyRect(x1, y1, x2, y2)
}

// BusyInRect returns the number of allocated processors inside s: a
// masked popcount per plane-row off the bitboard. On a torus, s may
// cross the wrap-around seams (X2 >= W or Y2 >= L) and is answered as
// its seam-split planar pieces. Out-of-range or invalid sub-meshes
// return 0.
func (m *Mesh) BusyInRect(s Submesh) int {
	if m.torus {
		if !m.wrapValid(s) {
			return 0
		}
		return m.wrapBusy(s)
	}
	if !s.Valid() || !m.InBounds(s.Base()) || !m.InBounds(s.End()) {
		return 0
	}
	return m.boxBusy(s.X1, s.Y1, s.Z1, s.X2, s.Y2, s.Z2)
}

// FreeInRect returns the number of free processors inside s — the
// popcount complement of BusyInRect. On a torus, s may cross the
// wrap-around seams. Out-of-range or invalid sub-meshes return 0.
func (m *Mesh) FreeInRect(s Submesh) int {
	if m.torus {
		if !m.wrapValid(s) {
			return 0
		}
		return s.Area() - m.wrapBusy(s)
	}
	if !s.Valid() || !m.InBounds(s.Base()) || !m.InBounds(s.End()) {
		return 0
	}
	return s.Area() - m.boxBusy(s.X1, s.Y1, s.Z1, s.X2, s.Y2, s.Z2)
}

// FitsAt reports whether the w x l sub-mesh based at (x,y) in plane 0
// lies on the mesh and is entirely free: one masked word compare per
// window row (rowFreeSpan), with the first busy cell ending the probe.
// On a torus the base must be on the grid but the extent may cross
// either seam (x+w > W, y+l > L), as long as it does not exceed the
// ring sizes. FitsAt3D is the cuboid generalization.
func (m *Mesh) FitsAt(x, y, w, l int) bool {
	if m.torus {
		if w <= 0 || l <= 0 || w > m.w || l > m.l ||
			x < 0 || x >= m.w || y < 0 || y >= m.l {
			return false
		}
		for j := 0; j < l; j++ {
			yy := y + j
			if yy >= m.l {
				yy -= m.l
			}
			if !m.rowFreeSpanWrap(yy, x, w) {
				return false
			}
		}
		return true
	}
	if w <= 0 || l <= 0 || x < 0 || y < 0 || x+w > m.w || y+l > m.l {
		return false
	}
	// Plane-0 rows have r == y on any depth.
	for j := 0; j < l; j++ {
		if !m.rowFreeSpan(y+j, x, w) {
			return false
		}
	}
	return true
}

// updateRowRuns restores the oracle rightRun invariant for plane-row r
// after the busy state of columns [x1,x2] changed. It recomputes from
// x2 leftward, stopping at the first unchanged value left of the
// touched span (the run recurrence is a suffix chain, so everything
// further left is already correct). Oracle mode only — the production
// aggregates settle off the words (aggSpanBusy/aggSpanFree).
func (m *Mesh) updateRowRuns(r, x1, x2 int) {
	row := r * m.w
	run := 0
	if x2+1 < m.w {
		run = m.rightRun[row+x2+1] // columns right of x2 are untouched
	}
	for x := x2; x >= 0; x-- {
		if m.busy[row+x] {
			run = 0
		} else {
			run++
		}
		if x < x1 && m.rightRun[row+x] == run {
			break
		}
		m.rightRun[row+x] = run
	}
}

// updateRowRunsSpan is updateRowRuns specialized for a uniformly
// flipped span (oracleFlipBox): the span's new run values need no
// busy-map probes — zeros when it went busy, an incrementing suffix
// chain off the right neighbour when it went free — and only the cells
// left of the span walk the generic repair with its early stop. Oracle
// mode only.
func (m *Mesh) updateRowRunsSpan(r, x1, x2 int, toBusy bool) {
	row := r * m.w
	var run int
	if toBusy {
		for x := x1; x <= x2; x++ {
			m.rightRun[row+x] = 0
		}
	} else {
		if x2+1 < m.w {
			run = m.rightRun[row+x2+1]
		}
		for x := x2; x >= x1; x-- {
			run++
			m.rightRun[row+x] = run
		}
	}
	for x := x1 - 1; x >= 0; x-- {
		if m.busy[row+x] {
			run = 0
		} else {
			run++
		}
		if m.rightRun[row+x] == run {
			break
		}
		m.rightRun[row+x] = run
	}
}

// aggSpanBusy settles plane-row r's aggregate after columns [x1,x2]
// went busy: if the recorded widest run was carved into, its value
// stays behind as a valid upper bound (runs only shrink under cells
// made busy) and the row goes stale; a recorded run the span missed
// cannot have shrunk, so nothing changes. O(1), no word reads.
func (m *Mesh) aggSpanBusy(r, x1, x2 int) {
	if m.rowStale[r] || m.rowMax[r] == 0 {
		return
	}
	if pos := m.rowMaxPos[r]; pos <= x2 && pos+m.rowMax[r] > x1 {
		m.rowStale[r] = true
	}
}

// aggSpanFree settles plane-row r's aggregate after columns [x1,x2]
// went free (bits already set): the run now containing the span is two
// trailing-zero hops off the words, and if it matches or beats the
// stored bound it is the new exact maximum — every other run either
// merged into it or was untouched and so is bounded by the old value.
// A shorter merged run leaves the aggregate alone: the stored bound
// still bounds it, and its staleness state is still correct because
// the recorded run, being disjoint from the span, was not touched. A
// grown exact row bound lifts the plane aggregate with it.
func (m *Mesh) aggSpanFree(r, x1, x2 int) {
	words := m.rowWords(r)
	start := maskPrevBusy(words, x1) + 1
	end := maskNextBusy(words, x2, m.w)
	if run := end - start; run >= m.rowMax[r] {
		m.rowMax[r], m.rowMaxPos[r], m.rowStale[r] = run, start, false
		if z := r / m.l; run > m.planeMax[z] {
			m.planeMax[z] = run
		}
	}
}

// aggCellFree is aggSpanFree for a single freed cell — the per-node
// release fold, order-independent within a batch because every bit is
// already set before the first fold.
func (m *Mesh) aggCellFree(r, x int) { m.aggSpanFree(r, x, x) }

// rowMaxRescan re-derives plane-row r's exact widest run by extracting
// runs from the bitboard words (the first strictly wider run wins, the
// same max and position the retained rightRun hop derives). Called by
// searches on stale rows only. Lowering the row bound may strand the
// plane aggregate as an over-estimate, so a plane whose record matched
// the lowered row goes stale too (planeMaxAt repairs it).
func (m *Mesh) rowMaxRescan(r int) {
	words := m.rowWords(r)
	max, maxPos := 0, 0
	for x := 0; x < m.w; {
		x0 := maskNextFree(words, x, m.w)
		if x0 >= m.w {
			break
		}
		x1 := maskNextBusy(words, x0, m.w)
		if rr := x1 - x0; rr > max {
			max, maxPos = rr, x0
		}
		x = x1 + 1 // land past the run-ending busy processor
	}
	if z := r / m.l; max < m.rowMax[r] && m.rowMax[r] >= m.planeMax[z] {
		m.planeStale[z] = true
	}
	m.rowMax[r], m.rowMaxPos[r], m.rowStale[r] = max, maxPos, false
}

// rowMaxAt returns the exact widest free run of plane-row r, repairing
// a stale aggregate first.
func (m *Mesh) rowMaxAt(r int) int {
	if m.rowStale[r] {
		m.rowMaxRescan(r)
	}
	return m.rowMax[r]
}

// rowFitsWidth reports whether plane-row r's widest free run is at
// least w. The stored aggregate is an upper bound even when stale
// (looseRowBound), so a value already below w settles the question
// without the O(W) repair; only an inconclusive stale row pays for
// exactness.
func (m *Mesh) rowFitsWidth(r, w int) bool {
	if m.rowMax[r] < w {
		return false
	}
	return m.rowMaxAt(r) >= w
}

// flipBox marks the (validated) cuboid busy or free: whole-word writes
// per plane-row (markRowSpan) with the O(1) aggregate settle riding
// along — no per-cell loop anywhere on the path. Oracle mode mirrors
// the flip into the demoted tables.
func (m *Mesh) flipBox(x1, y1, z1, x2, y2, z2 int, toBusy bool) {
	if !toBusy {
		m.noteRelease()
	}
	for z := z1; z <= z2; z++ {
		for y := y1; y <= y2; y++ {
			r := m.rowIdx(y, z)
			m.markRowSpan(r, x1, x2, toBusy)
			if toBusy {
				m.aggSpanBusy(r, x1, x2)
			} else {
				m.aggSpanFree(r, x1, x2)
			}
		}
	}
	if m.oracle {
		m.oracleFlipBox(x1, y1, z1, x2, y2, z2, toBusy)
	}
}

// noteCells settles the aggregates after the given cells' bits changed
// by sign (+1 busy, -1 free). The callers flip the bits themselves
// (the flips double as duplicate detectors); this fold is one O(1)
// settle per cell, allocation-free. Oracle mode mirrors the batch into
// the demoted tables.
func (m *Mesh) noteCells(nodes []Coord, sign int) {
	if sign < 0 {
		m.noteRelease()
	}
	for _, c := range nodes {
		r := m.rowIdx(c.Y, c.Z)
		if sign > 0 {
			m.aggSpanBusy(r, c.X, c.X)
		} else {
			m.aggCellFree(r, c.X)
		}
	}
	if m.oracle {
		m.oracleNoteCells(nodes, sign)
	}
}

// Allocate marks the processors busy. It returns an error — without
// side effects — if any is out of bounds or already allocated; a
// strategy asking for an occupied processor is a bug, and catching it
// here keeps every allocator honest.
func (m *Mesh) Allocate(nodes []Coord) error {
	for _, c := range nodes {
		if !m.InBounds(c) {
			return fmt.Errorf("mesh: allocate out of bounds %v", c)
		}
		if !m.freeBitAt(m.rowIdx(c.Y, c.Z), c.X) {
			return fmt.Errorf("mesh: allocate already-busy %v", c)
		}
	}
	// Reject duplicate coordinates inside one request: every node was
	// free above, so hitting a cleared bit while marking means this very
	// request cleared it.
	for i, c := range nodes {
		r := m.rowIdx(c.Y, c.Z)
		if !m.freeBitAt(r, c.X) {
			for k := 0; k < i; k++ {
				p := nodes[k]
				m.setFreeBit(m.rowIdx(p.Y, p.Z), p.X)
			}
			return fmt.Errorf("mesh: duplicate coordinate %v in request", c)
		}
		m.clearFreeBit(r, c.X)
	}
	m.freeCount -= len(nodes)
	m.noteCells(nodes, 1)
	return nil
}

// AllocateSub marks an entire sub-mesh busy. The overlap check is one
// masked word compare per plane-row (rowFreeSpan); the flip is
// whole-word writes over the same rows.
func (m *Mesh) AllocateSub(s Submesh) error {
	if !s.Valid() || !m.InBounds(s.Base()) || !m.InBounds(s.End()) {
		return fmt.Errorf("mesh: allocate invalid sub-mesh %v", s)
	}
	w := s.W()
	for z := s.Z1; z <= s.Z2; z++ {
		for y := s.Y1; y <= s.Y2; y++ {
			if !m.rowFreeSpan(m.rowIdx(y, z), s.X1, w) {
				return fmt.Errorf("mesh: sub-mesh %v overlaps busy %v", s, m.firstInRect(s, true))
			}
		}
	}
	m.flipBox(s.X1, s.Y1, s.Z1, s.X2, s.Y2, s.Z2, true)
	m.freeCount -= s.Area()
	return nil
}

// firstInRect returns the scan-order first cell of s whose busy state
// matches want. It only runs on error paths, for diagnostics.
func (m *Mesh) firstInRect(s Submesh, want bool) Coord {
	for z := s.Z1; z <= s.Z2; z++ {
		for y := s.Y1; y <= s.Y2; y++ {
			r := m.rowIdx(y, z)
			for x := s.X1; x <= s.X2; x++ {
				if !m.freeBitAt(r, x) == want {
					return Coord{x, y, z}
				}
			}
		}
	}
	panic(fmt.Sprintf("mesh: no cell with busy=%v in %v", want, s))
}

// Release marks the processors free. Releasing a free processor is an
// error for the same reason double-allocation is. On a mesh with
// failed processors (fault.go), pinned cells in the request stay busy:
// an overlaid pin has its overlay cleared, a bare pin is an error.
func (m *Mesh) Release(nodes []Coord) error {
	if m.pinnedCount > 0 {
		return m.releasePinnedAware(nodes)
	}
	for _, c := range nodes {
		if !m.InBounds(c) {
			return fmt.Errorf("mesh: release out of bounds %v", c)
		}
		if m.freeBitAt(m.rowIdx(c.Y, c.Z), c.X) {
			return fmt.Errorf("mesh: release already-free %v", c)
		}
	}
	// Reject duplicate coordinates inside one request, mirroring
	// Allocate: every node was busy above, so hitting a set bit while
	// clearing means this very request set it.
	for i, c := range nodes {
		r := m.rowIdx(c.Y, c.Z)
		if m.freeBitAt(r, c.X) {
			for k := 0; k < i; k++ {
				p := nodes[k]
				m.clearFreeBit(m.rowIdx(p.Y, p.Z), p.X)
			}
			return fmt.Errorf("mesh: duplicate coordinate %v in request", c)
		}
		m.setFreeBit(r, c.X)
	}
	m.freeCount += len(nodes)
	m.noteCells(nodes, -1)
	return nil
}

// ReleaseSub marks an entire sub-mesh free, directly by cuboid (no
// per-node materialization) with the same error checking as Release:
// out-of-bounds or already-free processors are reported without side
// effects. Invalid (empty) sub-meshes release nothing. On a mesh with
// failed processors (fault.go), pinned cells inside the cuboid are
// never freed: a pin overlaid by the allocation stays busy with its
// overlay cleared, a bare pin is an error.
func (m *Mesh) ReleaseSub(s Submesh) error {
	if !s.Valid() {
		return nil
	}
	if !m.InBounds(s.Base()) || !m.InBounds(s.End()) {
		for z := s.Z1; z <= s.Z2; z++ {
			for y := s.Y1; y <= s.Y2; y++ {
				for x := s.X1; x <= s.X2; x++ {
					if !m.InBounds(Coord{x, y, z}) {
						return fmt.Errorf("mesh: release out of bounds %v", Coord{x, y, z})
					}
				}
			}
		}
	}
	if m.pinnedCount > 0 {
		return m.releaseSubPinnedAware(s)
	}
	if m.scanBusyBox(s.X1, s.Y1, s.Z1, s.X2, s.Y2, s.Z2) != s.Area() {
		return fmt.Errorf("mesh: release already-free %v", m.firstInRect(s, false))
	}
	m.flipBox(s.X1, s.Y1, s.Z1, s.X2, s.Y2, s.Z2, false)
	m.freeCount += s.Area()
	return nil
}

// SubFree reports whether every processor of s is free (paper
// Definition 3): one masked word compare per plane-row, the first busy
// cell ending the probe. On a torus, s may cross the wrap-around
// seams. Out-of-range sub-meshes are not free.
func (m *Mesh) SubFree(s Submesh) bool {
	if m.torus {
		return m.torusSubFree(s)
	}
	if !s.Valid() || !m.InBounds(s.Base()) || !m.InBounds(s.End()) {
		return false
	}
	w := s.W()
	for z := s.Z1; z <= s.Z2; z++ {
		for y := s.Y1; y <= s.Y2; y++ {
			if !m.rowFreeSpan(m.rowIdx(y, z), s.X1, w) {
				return false
			}
		}
	}
	return true
}

// FreeNodes returns the free processors plane by plane in row-major
// order.
func (m *Mesh) FreeNodes() []Coord {
	out := make([]Coord, 0, m.freeCount)
	for c := range m.FreeSeq() {
		out = append(out, c)
	}
	return out
}

// Clone returns an independent copy of the mesh occupancy, preserving
// the topology and geometry: the words, aggregates and pin marks copy
// over, and an oracle-mode source rebuilds the clone's oracle tables
// from the copied words.
func (m *Mesh) Clone() *Mesh {
	n := New3D(m.w, m.l, m.h)
	n.torus = m.torus
	copy(n.freeW, m.freeW)
	copy(n.rowMax, m.rowMax)
	copy(n.rowMaxPos, m.rowMaxPos)
	copy(n.rowStale, m.rowStale)
	copy(n.planeMax, m.planeMax)
	copy(n.planeStale, m.planeStale)
	n.freeCount = m.freeCount
	if m.pinned != nil {
		n.ensureFault()
		copy(n.pinned, m.pinned)
		copy(n.overlay, m.overlay)
		n.pinnedCount = m.pinnedCount
		n.overlayCount = m.overlayCount
	}
	if m.oracle {
		n.EnableOracle()
	}
	return n
}

// Reset frees every processor, recovering any failed ones: the mesh
// returns to its factory all-free state.
func (m *Mesh) Reset() {
	if m.pinned != nil {
		for i := range m.pinned {
			m.pinned[i] = false
			m.overlay[i] = false
		}
		m.pinnedCount, m.overlayCount = 0, 0
	}
	m.freeCount = m.Size()
	m.noteRelease()
	m.resetTables()
}

// String renders the occupancy as an ASCII grid per plane, row y = L-1
// at the top (matching the paper's Fig. 1 orientation): '#' busy, '.'
// free, 'x' failed (fault.go) — a fault-free mesh renders exactly as
// before. Planes beyond the first are introduced by a "z=k" header; a
// 2D mesh renders exactly as before.
func (m *Mesh) String() string {
	b := make([]byte, 0, (m.w+1)*m.l*m.h)
	for z := 0; z < m.h; z++ {
		if m.h > 1 {
			b = append(b, fmt.Sprintf("z=%d\n", z)...)
		}
		for y := m.l - 1; y >= 0; y-- {
			row := (z*m.l + y) * m.w
			r := m.rowIdx(y, z)
			for x := 0; x < m.w; x++ {
				switch {
				case m.pinned != nil && m.pinned[row+x]:
					b = append(b, 'x')
				case !m.freeBitAt(r, x):
					b = append(b, '#')
				default:
					b = append(b, '.')
				}
			}
			b = append(b, '\n')
		}
	}
	return string(b)
}
