package mesh

import "fmt"

// Mesh is the occupancy model of a W x L x H mesh: which processors are
// allocated, how many are free, and the searches over the free set. A
// 2D mesh is the H == 1 special case: the depth axis adds plane-rows
// without disturbing the planar index, and the contiguous searches run
// one window walk whose depth-1 case is the planar and the torus
// search. It is not safe for concurrent use; a simulation owns one
// mesh.
//
// Occupancy is indexed incrementally — there is no per-decision
// full-table rebuild anywhere. The word-parallel bitboard freeW
// (bitboard.go) is the only occupancy state: wpr uint64 words per
// plane-row (rows are addressed by the plane-row index r = z·L + y, so
// a 2D mesh has r == y), bit x set iff the cell is free, tail bits past
// W always zero. Mutations flip it box by box (flipBox, one masked word
// operation per touched word of each plane-row, the span masks built
// once per box by spanOf) or bit by bit and maintain nothing else but
// freeCount, and every query derives from it on demand: Busy(c) is one
// bit test, cuboid freeness probes and free counts are the same masked
// word walk (boxIs, boxFree), and free-run lookups — the window walk's
// fit masks over AND-projected slab rows and its width checks
// (rowFitsWidth, ringFitsWidth for the torus seam runs), FreeSeq — are
// trailing-zero scans or shift-AND folds (maskNextFree/maskNextBusy).
//
// The invariants (checkTables in index_test.go checks them after every
// mutation, beside a naive per-cell model that predicts which cells
// each operation leaves busy) are, for all in-range x and plane-rows r:
//
//	freeW bit x of plane-row r set <=> the cell is free; bits >= w zero
//	freeCount == Σ OnesCount64 over all words
type Mesh struct {
	w, l, h int

	// freeW is the authoritative bitboard: wpr words per plane-row,
	// bit = free (see bitboard.go for the layout and tail rules).
	freeW []uint64
	wpr   int

	// torus selects wrap-around occupancy semantics for queries and
	// searches: the bitboard words stay planar either way (see torus.go),
	// so every maintenance invariant above holds verbatim on both
	// topologies. The torus query layer is two-dimensional; NewTorus
	// rejects depth > 1.
	torus bool

	freeCount int

	// hist holds the searches' reusable buffers (histogram.go,
	// walk.go, bestfit.go); lazily sized, never part of the occupancy
	// state.
	hist histScratch

	// pinned marks failed processors (fault.go): pinned cells are busy
	// in the words, and the release paths refuse to free them.
	// overlay marks the pinned cells whose failing flip found a live
	// allocation underneath — their release clears the overlay and
	// leaves the cell busy. Both are bitboards in freeW's layout (bit x
	// of plane-row r's words is cell (x, r), tail bits zero), so a
	// release runs on words; both are nil until the first Fail, so
	// fault-free meshes pay nothing.
	pinned       []uint64
	overlay      []uint64
	pinnedCount  int
	overlayCount int
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
		w:         w,
		l:         l,
		h:         h,
		freeW:     make([]uint64, wordsPerRow(w)*l*h),
		wpr:       wordsPerRow(w),
		freeCount: w * l * h,
	}
	m.resetTables()
	return m
}

// rows returns the number of plane-rows, l*h.
func (m *Mesh) rows() int { return m.l * m.h }

// rowIdx maps (y, z) to the plane-row index.
func (m *Mesh) rowIdx(y, z int) int { return z*m.l + y }

// resetTables sets the index to the all-free state: every word filled.
func (m *Mesh) resetTables() {
	for r := 0; r < m.rows(); r++ {
		fillRowFree(m.rowWords(r), m.w)
	}
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

// FreeInRect returns the number of free processors inside s: a masked
// popcount per touched word of each plane-row off the bitboard
// (boxFree). On a torus, s may cross the wrap-around seams (X2 >= W or
// Y2 >= L) and is answered as its seam-split planar pieces.
// Out-of-range or invalid sub-meshes return 0.
func (m *Mesh) FreeInRect(s Submesh) int {
	if m.torus {
		if !m.wrapValid(s) {
			return 0
		}
		return m.wrapFree(s)
	}
	if !s.Valid() || !m.InBounds(s.Base()) || !m.InBounds(s.End()) {
		return 0
	}
	return m.boxFree(s)
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
		if i, b := m.cellBit(c); m.freeW[i]&b == 0 {
			return fmt.Errorf("mesh: allocate already-busy %v", c)
		}
	}
	// Reject duplicate coordinates inside one request: every node was
	// free above, so hitting a cleared bit while marking means this very
	// request cleared it.
	for k, c := range nodes {
		i, b := m.cellBit(c)
		if m.freeW[i]&b == 0 {
			for _, p := range nodes[:k] {
				j, pb := m.cellBit(p)
				m.freeW[j] |= pb
			}
			return fmt.Errorf("mesh: duplicate coordinate %v in request", c)
		}
		m.freeW[i] &^= b
	}
	m.freeCount -= len(nodes)
	return nil
}

// AllocateSub marks an entire sub-mesh busy. The overlap check and the
// flip are each one masked word operation per touched word of each
// plane-row, under span masks built once (boxIs, flipBox).
func (m *Mesh) AllocateSub(s Submesh) error {
	if !s.Valid() || !m.InBounds(s.Base()) || !m.InBounds(s.End()) {
		return fmt.Errorf("mesh: allocate invalid sub-mesh %v", s)
	}
	sp := spanOf(s.X1, s.X2)
	if !m.boxIs(s, sp, ^uint64(0)) {
		return fmt.Errorf("mesh: sub-mesh %v overlaps busy %v", s, m.firstInRect(s, true))
	}
	m.flipBox(s, sp)
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
		if i, b := m.cellBit(c); m.freeW[i]&b != 0 {
			return fmt.Errorf("mesh: release already-free %v", c)
		}
	}
	// Reject duplicate coordinates inside one request, mirroring
	// Allocate: every node was busy above, so hitting a set bit while
	// clearing means this very request set it.
	for k, c := range nodes {
		i, b := m.cellBit(c)
		if m.freeW[i]&b != 0 {
			for _, p := range nodes[:k] {
				j, pb := m.cellBit(p)
				m.freeW[j] &^= pb
			}
			return fmt.Errorf("mesh: duplicate coordinate %v in request", c)
		}
		m.freeW[i] |= b
	}
	m.freeCount += len(nodes)
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
	sp := spanOf(s.X1, s.X2)
	if m.pinnedCount > 0 {
		return m.releaseSubPinnedAware(s, sp)
	}
	if !m.boxIs(s, sp, 0) {
		return fmt.Errorf("mesh: release already-free %v", m.firstInRect(s, false))
	}
	m.flipBox(s, sp)
	m.freeCount += s.Area()
	return nil
}

// SubFree reports whether every processor of s is free (paper
// Definition 3): one masked word compare per touched word of each
// plane-row (boxIs), the first busy cell ending the probe. On a torus,
// s may cross the wrap-around seams and is probed as its seam-split
// planar pieces. Out-of-range sub-meshes are not free.
func (m *Mesh) SubFree(s Submesh) bool {
	if m.torus {
		return m.torusSubFree(s)
	}
	return s.Valid() && m.InBounds(s.Base()) && m.InBounds(s.End()) &&
		m.boxIs(s, spanOf(s.X1, s.X2), ^uint64(0))
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

// Reset frees every processor, recovering any failed ones: the mesh
// returns to its factory all-free state.
func (m *Mesh) Reset() {
	if m.pinned != nil {
		clear(m.pinned)
		clear(m.overlay)
		m.pinnedCount, m.overlayCount = 0, 0
	}
	m.freeCount = m.Size()
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
			r := m.rowIdx(y, z)
			for x := 0; x < m.w; x++ {
				switch {
				case m.Pinned(Coord{x, y, z}):
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
