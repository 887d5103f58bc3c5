// Package alloc implements the processor allocation strategies the
// paper evaluates — Paging(size_index), MBS (Multiple Buddy Strategy)
// and GABL (Greedy Available Busy List) — plus contiguous First-Fit /
// Best-Fit and a random non-contiguous scatter used as baselines and for
// the ablation studies.
//
// All strategies share one mesh.Mesh occupancy model, which enforces the
// safety invariants (no double allocation, exact release) so every
// strategy is checked on every call.
package alloc

import (
	"fmt"

	"repro/internal/mesh"
)

// Request is one job's allocation request: a sub-mesh of W x L x H
// processors (paper Definition 4 asks for S(a, b); the depth axis
// generalizes it to cuboids on 3D meshes, and non-contiguous
// strategies consume Size() processors in whatever shape). H <= 0
// means an unspecified depth and is treated as 1, so every 2D call
// site reads unchanged.
type Request struct {
	W, L, H int
}

// Depth returns the requested depth, treating the zero value as 1.
func (r Request) Depth() int {
	if r.H < 1 {
		return 1
	}
	return r.H
}

// Size returns the number of processors requested.
func (r Request) Size() int { return r.W * r.L * r.Depth() }

// Valid reports whether both planar sides are positive (the depth
// defaults rather than invalidates).
func (r Request) Valid() bool { return r.W > 0 && r.L > 0 }

// String renders the request as "WxL", or "WxLxH" when a depth is set.
func (r Request) String() string {
	if r.Depth() == 1 {
		return fmt.Sprintf("%dx%d", r.W, r.L)
	}
	return fmt.Sprintf("%dx%dx%d", r.W, r.L, r.H)
}

// Allocation is the set of disjoint sub-meshes granted to one job.
type Allocation struct {
	// Pieces are the planar rectangles committed to the mesh. On a
	// torus a single logical placement that crosses a wrap-around seam
	// is stored as its 2-4 planar pieces (mesh.SplitWrap).
	Pieces []mesh.Submesh
	// Logical is the number of logical placements the pieces realise.
	// Zero means every piece is its own placement — the planar case,
	// where the two counts coincide.
	Logical int
}

// PieceCount returns the number of logical placements: what the
// contiguity metrics should count. A torus placement wrapping a seam
// counts once even though it is committed as several planar pieces.
func (a Allocation) PieceCount() int {
	if a.Logical > 0 {
		return a.Logical
	}
	return len(a.Pieces)
}

// Size returns the total processors allocated.
func (a Allocation) Size() int {
	n := 0
	for _, p := range a.Pieces {
		n += p.Area()
	}
	return n
}

// Nodes returns every allocated processor, piece by piece in row-major
// order within each piece.
func (a Allocation) Nodes() []mesh.Coord {
	return a.AppendNodes(make([]mesh.Coord, 0, a.Size()))
}

// AppendNodes appends every allocated processor to dst in the same
// order as Nodes (plane by plane, row-major within each piece) and
// returns the extended slice. Callers on hot paths (the simulator
// keeps one buffer per pooled job) reuse dst to avoid a per-allocation
// node materialization.
func (a Allocation) AppendNodes(dst []mesh.Coord) []mesh.Coord {
	for _, p := range a.Pieces {
		for z := p.Z1; z <= p.Z2; z++ {
			for y := p.Y1; y <= p.Y2; y++ {
				for x := p.X1; x <= p.X2; x++ {
					dst = append(dst, mesh.Coord{X: x, Y: y, Z: z})
				}
			}
		}
	}
	return dst
}

// Contiguous reports whether the allocation is a single (possibly
// seam-crossing) sub-mesh.
func (a Allocation) Contiguous() bool { return a.PieceCount() == 1 }

// Allocator is a processor allocation strategy bound to a mesh.
type Allocator interface {
	// Name identifies the strategy in result tables, e.g. "GABL".
	Name() string
	// Allocate attempts to satisfy the request, returning the granted
	// allocation. ok is false when the strategy cannot place the
	// request in the current occupancy (the scheduler keeps the job
	// queued). A returned allocation is already committed to the mesh.
	Allocate(req Request) (Allocation, bool)
	// Release returns a previously granted allocation's processors and
	// takes back the storage behind a.Pieces: a later Allocate may
	// reuse it, so the caller must not read a.Pieces (or any copy of
	// a) after the call.
	Release(a Allocation)
	// Mesh exposes the underlying occupancy (shared across strategies
	// in comparisons only sequentially, never concurrently).
	Mesh() *mesh.Mesh
}

// validate panics on malformed requests: the workload generators are
// responsible for producing requests that fit the mesh, and a request
// that can never fit would otherwise wedge a FCFS queue forever.
func validate(m *mesh.Mesh, req Request) {
	if !req.Valid() {
		panic(fmt.Sprintf("alloc: invalid request %v", req))
	}
	if req.Size() > m.Size() {
		panic(fmt.Sprintf("alloc: request %v exceeds mesh capacity %d", req, m.Size()))
	}
	if req.Depth() > m.H() {
		panic(fmt.Sprintf("alloc: request %v deeper than %d-plane mesh", req, m.H()))
	}
}

// commit allocates every piece on the mesh, panicking on any violation:
// strategies must only propose free, disjoint pieces.
func commit(m *mesh.Mesh, pieces []mesh.Submesh) Allocation {
	for _, p := range pieces {
		if err := m.AllocateSub(p); err != nil {
			panic(fmt.Sprintf("alloc: strategy proposed invalid piece: %v", err))
		}
	}
	return Allocation{Pieces: pieces}
}

// commitWhole commits one logical — possibly wrap-around seam-crossing
// — sub-mesh: its planar pieces (mesh.SplitWrap, appended to buf) are
// allocated and the allocation counts as a single placement.
func commitWhole(m *mesh.Mesh, buf []mesh.Submesh, s mesh.Submesh) Allocation {
	a := commit(m, m.SplitWrap(buf, s))
	a.Logical = 1
	return a
}

// pieceBufs recycles the piece lists of released allocations: Release
// takes a.Pieces back and the next Allocate appends into it, so once a
// strategy holds as many lists as allocations are ever live at once,
// its Allocate/Release cycle allocates nothing. It starts empty.
type pieceBufs [][]mesh.Submesh

// get returns an empty piece list, a recycled one when available.
func (b *pieceBufs) get() []mesh.Submesh {
	n := len(*b)
	if n == 0 {
		return nil
	}
	buf := (*b)[n-1]
	(*b)[n-1] = nil
	*b = (*b)[:n-1]
	return buf
}

// release frees every piece of a, panicking on double release, then
// recycles a.Pieces. Pieces are freed last first. The order does not
// matter to the mesh: each ReleaseSub flips only its own piece's words
// and maintains nothing derived from its neighbours.
func (b *pieceBufs) release(m *mesh.Mesh, a Allocation) {
	for i := len(a.Pieces) - 1; i >= 0; i-- {
		if err := m.ReleaseSub(a.Pieces[i]); err != nil {
			panic(fmt.Sprintf("alloc: invalid release: %v", err))
		}
	}
	b.put(a.Pieces)
}

// put recycles a piece list the caller no longer uses.
func (b *pieceBufs) put(buf []mesh.Submesh) {
	if cap(buf) > 0 {
		*b = append(*b, buf[:0])
	}
}
