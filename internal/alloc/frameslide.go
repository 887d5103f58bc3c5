package alloc

import (
	"repro/internal/mesh"
)

// FrameSliding implements the classic Frame Sliding contiguous strategy
// (Chuang & Tzeng, ICDCS 1991): candidate frames slide across the mesh
// in strides of the request's width and length instead of scanning
// every base, trading complete sub-mesh recognition for speed. It is
// included as a second contiguous baseline: its missed frames raise
// external fragmentation above First-Fit's, which sharpens the paper's
// motivation for non-contiguous allocation.
type FrameSliding struct {
	m      *mesh.Mesh
	rotate bool
	bufs   pieceBufs
}

// NewFrameSliding builds a frame-sliding allocator.
func NewFrameSliding(m *mesh.Mesh, rotate bool) *FrameSliding {
	return &FrameSliding{m: m, rotate: rotate}
}

// Name implements Allocator.
func (f *FrameSliding) Name() string {
	if f.rotate {
		return "FrameSliding(R)"
	}
	return "FrameSliding"
}

// Mesh implements Allocator.
func (f *FrameSliding) Mesh() *mesh.Mesh { return f.m }

// Allocate implements Allocator.
func (f *FrameSliding) Allocate(req Request) (Allocation, bool) {
	validate(f.m, req)
	if req.Size() > f.m.FreeCount() {
		return Allocation{}, false
	}
	// The stride scan itself lives on the occupancy index
	// (mesh.SlideFit).
	h := req.Depth()
	if s, ok := f.m.SlideFit(req.W, req.L, h); ok {
		return commitWhole(f.m, f.bufs.get(), s), true
	}
	if f.rotate && req.W != req.L {
		if s, ok := f.m.SlideFit(req.L, req.W, h); ok {
			return commitWhole(f.m, f.bufs.get(), s), true
		}
	}
	return Allocation{}, false
}

// Release implements Allocator.
func (f *FrameSliding) Release(a Allocation) { f.bufs.release(f.m, a) }
