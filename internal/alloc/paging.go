package alloc

import (
	"fmt"

	"repro/internal/mesh"
)

// Indexing selects the page traversal order of the Paging strategy
// (Lo et al., TPDS 1997, §4.2). The paper under reproduction uses
// row-major only, having found the scheme makes little difference; the
// others are provided for the ablation bench.
type Indexing int

// Page indexing schemes.
const (
	RowMajor Indexing = iota
	SnakeLike
	ShuffledRowMajor
	ShuffledSnakeLike
)

var indexingNames = [...]string{"row-major", "snake", "shuffled-row-major", "shuffled-snake"}

// String names the indexing scheme.
func (ix Indexing) String() string {
	if ix < 0 || int(ix) >= len(indexingNames) {
		return fmt.Sprintf("Indexing(%d)", int(ix))
	}
	return indexingNames[ix]
}

// Paging implements the Paging(size_index) strategy: the mesh is split
// into square pages of side 2^size_index; a request for p processors
// takes the first ceil(p / pageArea) free pages in index order. Pages
// are the allocation unit, so size_index > 0 introduces internal
// fragmentation, while the index order provides a degree of contiguity.
//
// Page occupancy is read straight off the mesh's O(1) rectangle
// queries rather than a shadow bitmap, so the strategy can never drift
// out of sync with the occupancy it allocates from.
//
// Paging is topology-independent: pages are axis-aligned tiles that
// never cross a torus wrap-around seam, so the strategy behaves
// identically on both fabrics (only the routing underneath changes).
// On a 3D mesh the pages stay planar (side x side x 1 tiles) and the
// visit order walks the planes in ascending z, each in the configured
// 2D indexing — a depth-1 mesh is byte-identical to the 2D strategy.
type Paging struct {
	m         *mesh.Mesh
	side      int   // page side length, 2^size_index
	pagesX    int   // pages per row
	pagesY    int   // pages per column
	pagesZ    int   // page planes (the mesh depth; pages are planar)
	order     []int // page visit order (indices into page grid); nil for row-major, the identity
	sizeIndex int
	indexing  Indexing
	bufs      pieceBufs
}

// NewPaging builds a Paging(sizeIndex) allocator with the given page
// indexing scheme. The planar mesh sides must be divisible by the page
// side.
func NewPaging(m *mesh.Mesh, sizeIndex int, indexing Indexing) (*Paging, error) {
	if sizeIndex < 0 || sizeIndex > 10 {
		return nil, fmt.Errorf("alloc: size_index %d out of range", sizeIndex)
	}
	side := 1 << sizeIndex
	if m.W()%side != 0 || m.L()%side != 0 {
		return nil, fmt.Errorf("alloc: %dx%d mesh not divisible into %dx%d pages",
			m.W(), m.L(), side, side)
	}
	p := &Paging{
		m:         m,
		side:      side,
		pagesX:    m.W() / side,
		pagesY:    m.L() / side,
		pagesZ:    m.H(),
		sizeIndex: sizeIndex,
		indexing:  indexing,
	}
	if indexing == RowMajor {
		// Visiting pages in grid-index order needs no table.
		return p, nil
	}
	// Plane 0's order, then each deeper plane's: the same walk offset
	// by whole planes.
	p.order = buildOrder(p.pagesX, p.pagesY, indexing)
	perPlane := len(p.order)
	for z := 1; z < p.pagesZ; z++ {
		for _, gi := range p.order[:perPlane] {
			p.order = append(p.order, z*perPlane+gi)
		}
	}
	return p, nil
}

// buildOrder returns page grid indices (py*pagesX+px) in visit order.
func buildOrder(px, py int, ix Indexing) []int {
	base := make([]int, 0, px*py)
	switch ix {
	case RowMajor, ShuffledRowMajor:
		for y := 0; y < py; y++ {
			for x := 0; x < px; x++ {
				base = append(base, y*px+x)
			}
		}
	case SnakeLike, ShuffledSnakeLike:
		for y := 0; y < py; y++ {
			if y%2 == 0 {
				for x := 0; x < px; x++ {
					base = append(base, y*px+x)
				}
			} else {
				for x := px - 1; x >= 0; x-- {
					base = append(base, y*px+x)
				}
			}
		}
	default:
		panic(fmt.Sprintf("alloc: unknown indexing %d", int(ix)))
	}
	if ix == ShuffledRowMajor || ix == ShuffledSnakeLike {
		return shuffleBitReverse(base)
	}
	return base
}

// shuffleBitReverse permutes the order by bit-reversing each position
// within the next power of two, dropping out-of-range slots — the
// "shuffled" page orders of Lo et al., which scatter consecutive
// requests across the mesh.
func shuffleBitReverse(base []int) []int {
	n := len(base)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	out := make([]int, 0, n)
	for i := 0; i < 1<<bits; i++ {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		if r < n {
			out = append(out, base[r])
		}
	}
	return out
}

// Name implements Allocator.
func (p *Paging) Name() string {
	return fmt.Sprintf("Paging(%d)", p.sizeIndex)
}

// Mesh implements Allocator.
func (p *Paging) Mesh() *mesh.Mesh { return p.m }

// SizeIndex returns the strategy's page size exponent.
func (p *Paging) SizeIndex() int { return p.sizeIndex }

// Indexing returns the page traversal scheme.
func (p *Paging) Indexing() Indexing { return p.indexing }

// FreePages returns the number of unallocated pages, read off the mesh
// occupancy (one O(1) rectangle query per page).
func (p *Paging) FreePages() int {
	n := 0
	for gi := 0; gi < p.pagesX*p.pagesY*p.pagesZ; gi++ {
		if p.m.SubFree(p.pageSub(gi)) {
			n++
		}
	}
	return n
}

// pageSub returns the sub-mesh covered by page grid index gi.
func (p *Paging) pageSub(gi int) mesh.Submesh {
	perPlane := p.pagesX * p.pagesY
	pz, rem := gi/perPlane, gi%perPlane
	px, py := rem%p.pagesX, rem/p.pagesX
	return mesh.SubAt3D(px*p.side, py*p.side, pz, p.side, p.side, 1)
}

// Allocate implements Allocator: take the first ceil(p/pageArea) free
// pages in index order. Page freeness is an O(1) mesh query per page.
func (p *Paging) Allocate(req Request) (Allocation, bool) {
	validate(p.m, req)
	pageArea := p.side * p.side
	need := (req.Size() + pageArea - 1) / pageArea
	if need*pageArea > p.m.FreeCount() {
		return Allocation{}, false
	}
	pieces := p.bufs.get()
	for i := range p.pagesX * p.pagesY * p.pagesZ {
		gi := i
		if p.order != nil {
			gi = p.order[i]
		}
		if p.side == 1 {
			// Single-processor pages: one busy-map read per page.
			perPlane := p.pagesX * p.pagesY
			rem := gi % perPlane
			if p.m.Busy(mesh.Coord{X: rem % p.pagesX, Y: rem / p.pagesX, Z: gi / perPlane}) {
				continue
			}
		} else if !p.m.SubFree(p.pageSub(gi)) {
			continue
		}
		pieces = append(pieces, p.pageSub(gi))
		if len(pieces) == need {
			break
		}
	}
	if len(pieces) != need {
		// Enough processors but not in whole free pages: only possible
		// when the mesh is shared with a non-page-aligned allocator.
		p.bufs.put(pieces)
		return Allocation{}, false
	}
	return commit(p.m, pieces), true
}

// Release implements Allocator.
func (p *Paging) Release(a Allocation) {
	for _, piece := range a.Pieces {
		if piece.W() != p.side || piece.L() != p.side || piece.H() != 1 ||
			piece.X1%p.side != 0 || piece.Y1%p.side != 0 {
			panic(fmt.Sprintf("alloc: paging release of non-page piece %v", piece))
		}
	}
	p.bufs.release(p.m, a)
}
