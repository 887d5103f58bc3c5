package alloc

import (
	"repro/internal/mesh"
)

// GABL implements the Greedy Available Busy List strategy
// (Bani-Mohammad et al., SIMPAT 2007; paper §3). For a request S(a, b):
//
//  1. If a suitable free sub-mesh exists (width ≥ a, length ≥ b, or the
//     rotated request when rotation is enabled), allocate the request
//     contiguously inside it and stop — GABL maintains contiguity
//     whenever possible.
//  2. Otherwise greedily carve free sub-meshes: the first piece is the
//     largest free sub-mesh fitting inside S(a, b); every later piece
//     is the largest free sub-mesh whose sides do not exceed the
//     previous piece's sides; every piece's area is capped by the
//     processors still owed. Repeat until a·b processors are allocated.
//
// Allocation therefore always succeeds when at least a·b processors are
// free. Allocated pieces are kept in a busy list (the allocation's
// Pieces), whose length stays small because GABL prefers large pieces.
type GABL struct {
	m *mesh.Mesh
	// rotate enables trying the transposed request for the contiguous
	// step, as the SIMPAT formulation does; the ablation bench turns it
	// off to isolate the effect.
	rotate bool

	// busyLen tracks the busy-list length across current allocations
	// for the scalability ablation (paper §6 claims it stays short).
	busyLen int
	bufs    pieceBufs
}

// NewGABL builds a GABL allocator with request rotation enabled.
func NewGABL(m *mesh.Mesh) *GABL {
	return &GABL{m: m, rotate: true}
}

// NewGABLNoRotate builds a GABL variant that never tries the transposed
// request, for the ablation study.
func NewGABLNoRotate(m *mesh.Mesh) *GABL {
	return &GABL{m: m}
}

// Name implements Allocator.
func (g *GABL) Name() string {
	if !g.rotate {
		return "GABL(no-rotate)"
	}
	return "GABL"
}

// Mesh implements Allocator.
func (g *GABL) Mesh() *mesh.Mesh { return g.m }

// BusyListLen returns the total number of sub-meshes currently held by
// live allocations.
func (g *GABL) BusyListLen() int { return g.busyLen }

// Allocate implements Allocator.
func (g *GABL) Allocate(req Request) (Allocation, bool) {
	validate(g.m, req)
	p := req.Size()
	if p > g.m.FreeCount() {
		return Allocation{}, false
	}

	// Step 1: whole-request contiguous allocation. Requests carry a
	// depth on 3D meshes; rotation transposes the planar sides only.
	h := req.Depth()
	if s, ok := g.m.FirstFit3D(req.W, req.L, h); ok {
		g.busyLen++
		return commitWhole(g.m, g.bufs.get(), s), true
	}
	if g.rotate && req.W != req.L {
		if s, ok := g.m.FirstFit3D(req.L, req.W, h); ok {
			g.busyLen++
			return commitWhole(g.m, g.bufs.get(), s), true
		}
	}

	// Step 2: greedy carving. Piece sides are capped by the previous
	// piece (initially the request's own sides, per the paper: the
	// first piece must fit inside S(a, b), extended with the depth
	// cap); volumes by what is owed. On a torus a carved piece may
	// cross a wrap-around seam: it is one logical piece (one entry on
	// the busy list, one cap update) committed as its planar SplitWrap
	// parts.
	capW, capL, capH := req.W, req.L, h
	remaining := p
	pieces := g.bufs.get()
	logical := 0
	for remaining > 0 {
		s, ok := g.m.LargestFree3D(capW, capL, capH, remaining)
		if !ok {
			// Cannot happen with remaining <= free processors: a 1x1x1
			// free sub-mesh always qualifies.
			panic("alloc: gabl found no piece despite free processors")
		}
		n := len(pieces)
		pieces = g.m.SplitWrap(pieces, s)
		for _, part := range pieces[n:] {
			if err := g.m.AllocateSub(part); err != nil {
				panic("alloc: gabl proposed busy piece: " + err.Error())
			}
		}
		logical++
		remaining -= s.Area()
		capW, capL, capH = s.W(), s.L(), s.H()
	}
	g.busyLen += logical
	return Allocation{Pieces: pieces, Logical: logical}, true
}

// Release implements Allocator.
func (g *GABL) Release(a Allocation) {
	g.busyLen -= a.PieceCount()
	g.bufs.release(g.m, a)
}
