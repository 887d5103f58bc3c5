package alloc

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/stats"
)

// Contiguous is the classic contiguous allocation baseline: a request
// S(a, b) is granted a single free a x b sub-mesh (optionally also
// trying the rotated b x a) or rejected. It exhibits the external
// fragmentation that motivates the non-contiguous strategies (paper
// §1); it is included as a baseline and as the substrate other
// strategies' contiguous steps are validated against.
type Contiguous struct {
	m       *mesh.Mesh
	bestFit bool
	rotate  bool
	bufs    pieceBufs
}

// NewFirstFit builds a contiguous first-fit allocator.
func NewFirstFit(m *mesh.Mesh, rotate bool) *Contiguous {
	return &Contiguous{m: m, rotate: rotate}
}

// NewBestFit builds a contiguous best-fit allocator (boundary-hugging
// placement, Zhu-style).
func NewBestFit(m *mesh.Mesh, rotate bool) *Contiguous {
	return &Contiguous{m: m, bestFit: true, rotate: rotate}
}

// Name implements Allocator.
func (c *Contiguous) Name() string {
	n := "FirstFit"
	if c.bestFit {
		n = "BestFit"
	}
	if c.rotate {
		n += "(R)"
	}
	return n
}

// Mesh implements Allocator.
func (c *Contiguous) Mesh() *mesh.Mesh { return c.m }

// Allocate implements Allocator. Requests may carry a depth (cuboids
// on a 3D mesh); rotation transposes the planar sides only — the depth
// axis is never rotated, mirroring systems where the vertical
// dimension is physically distinct.
func (c *Contiguous) Allocate(req Request) (Allocation, bool) {
	validate(c.m, req)
	if req.Size() > c.m.FreeCount() {
		// No sub-mesh can exist with fewer free processors than the
		// request; skip the search (its answer is already known).
		return Allocation{}, false
	}
	search := c.m.FirstFit3D
	if c.bestFit {
		search = c.m.BestFit3D
	}
	h := req.Depth()
	if s, ok := search(req.W, req.L, h); ok {
		return commitWhole(c.m, c.bufs.get(), s), true
	}
	if c.rotate && req.W != req.L {
		if s, ok := search(req.L, req.W, h); ok {
			return commitWhole(c.m, c.bufs.get(), s), true
		}
	}
	return Allocation{}, false
}

// Release implements Allocator.
func (c *Contiguous) Release(a Allocation) { c.bufs.release(c.m, a) }

// Random is the fully scattered non-contiguous baseline: a request for
// p processors takes p uniformly random free processors with no regard
// for contiguity. It bounds the worst case of communication dispersal
// and anchors the GABL-contiguity ablation.
type Random struct {
	m    *mesh.Mesh
	rng  *stats.Stream
	bufs pieceBufs
}

// NewRandom builds a random-scatter allocator drawing from rng.
func NewRandom(m *mesh.Mesh, rng *stats.Stream) *Random {
	if rng == nil {
		panic("alloc: NewRandom requires a random stream")
	}
	return &Random{m: m, rng: rng}
}

// Name implements Allocator.
func (r *Random) Name() string { return "Random" }

// Mesh implements Allocator.
func (r *Random) Mesh() *mesh.Mesh { return r.m }

// Allocate implements Allocator.
func (r *Random) Allocate(req Request) (Allocation, bool) {
	validate(r.m, req)
	p := req.Size()
	free := r.m.FreeNodes()
	if p > len(free) {
		return Allocation{}, false
	}
	perm := r.rng.Perm(len(free))
	pieces := r.bufs.get()
	for _, i := range perm[:p] {
		c := free[i]
		pieces = append(pieces, mesh.SubAt3D(c.X, c.Y, c.Z, 1, 1, 1))
	}
	return commit(r.m, pieces), true
}

// Release implements Allocator.
func (r *Random) Release(a Allocation) { r.bufs.release(r.m, a) }

// strategyEntry pairs a registered strategy name with its factory; rng
// reaches only the strategies that draw randomness. flat means the
// strategy's allocation structure is inherently two-dimensional (MBS's
// buddy quartets), so it refuses meshes with more than one plane
// instead of silently allocating from plane 0 only.
type strategyEntry struct {
	name  string
	flat  bool
	build func(m *mesh.Mesh, rng *stats.Stream) (Allocator, error)
}

// registry lists every strategy ByName recognises, in the order
// Strategies reports them. The command-line tools derive their usage
// text from this list, so the documented names cannot drift from the
// accepted ones.
var registry = []strategyEntry{
	{name: "GABL", build: func(m *mesh.Mesh, _ *stats.Stream) (Allocator, error) { return NewGABL(m), nil }},
	{name: "GABL(no-rotate)", build: func(m *mesh.Mesh, _ *stats.Stream) (Allocator, error) { return NewGABLNoRotate(m), nil }},
	{name: "MBS", flat: true, build: func(m *mesh.Mesh, _ *stats.Stream) (Allocator, error) {
		if m.H() > 1 {
			return nil, fmt.Errorf("alloc: MBS is 2D-only (buddy quartets do not stack); mesh has %d planes", m.H())
		}
		return NewMBS(m), nil
	}},
	{name: "Paging(0)", build: func(m *mesh.Mesh, _ *stats.Stream) (Allocator, error) { return NewPaging(m, 0, RowMajor) }},
	{name: "Paging(0,snake)", build: func(m *mesh.Mesh, _ *stats.Stream) (Allocator, error) { return NewPaging(m, 0, SnakeLike) }},
	{name: "Paging(0,shuffled)", build: func(m *mesh.Mesh, _ *stats.Stream) (Allocator, error) { return NewPaging(m, 0, ShuffledRowMajor) }},
	{name: "Paging(0,shuffled-snake)", build: func(m *mesh.Mesh, _ *stats.Stream) (Allocator, error) { return NewPaging(m, 0, ShuffledSnakeLike) }},
	{name: "Paging(1)", build: func(m *mesh.Mesh, _ *stats.Stream) (Allocator, error) { return NewPaging(m, 1, RowMajor) }},
	{name: "Paging(2)", build: func(m *mesh.Mesh, _ *stats.Stream) (Allocator, error) { return NewPaging(m, 2, RowMajor) }},
	{name: "FirstFit", build: func(m *mesh.Mesh, _ *stats.Stream) (Allocator, error) { return NewFirstFit(m, true), nil }},
	{name: "BestFit", build: func(m *mesh.Mesh, _ *stats.Stream) (Allocator, error) { return NewBestFit(m, true), nil }},
	{name: "ANCA", build: func(m *mesh.Mesh, _ *stats.Stream) (Allocator, error) { return NewANCA(m), nil }},
	{name: "FrameSliding", build: func(m *mesh.Mesh, _ *stats.Stream) (Allocator, error) { return NewFrameSliding(m, true), nil }},
	{name: "Random", build: func(m *mesh.Mesh, rng *stats.Stream) (Allocator, error) {
		if rng == nil {
			rng = stats.NewStream(1)
		}
		return NewRandom(m, rng), nil
	}},
}

// Strategies returns every registered strategy name in registry order
// — the authoritative list for usage text and documentation.
func Strategies() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Supports3D reports whether the named strategy can allocate on a mesh
// with more than one plane. It is false for unknown names (ByName
// reports those) and for the inherently planar strategies, so callers
// can fail fast on a depth > 1 geometry instead of discovering the
// mismatch mid-run.
func Supports3D(name string) bool {
	for _, e := range registry {
		if e.name == name {
			return !e.flat
		}
	}
	return false
}

// ByName constructs the named strategy on m; rng is used only by
// "Random". Recognised names are exactly Strategies(). It is the
// strategy factory used by the command-line tools.
func ByName(name string, m *mesh.Mesh, rng *stats.Stream) (Allocator, error) {
	for _, e := range registry {
		if e.name != name {
			continue
		}
		a, err := e.build(m, rng)
		if err != nil {
			return nil, err
		}
		return a, nil
	}
	return nil, fmt.Errorf("alloc: unknown strategy %q", name)
}
