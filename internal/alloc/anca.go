package alloc

import (
	"repro/internal/mesh"
)

// ANCA implements Adaptive Non-Contiguous Allocation (Chang &
// Mohapatra, JPDC 1998 — the paper's reference [4]). A request is first
// attempted contiguously; on failure it is subdivided into 2^i
// equal-ish subframes at level i (halving the longer side each level),
// and allocation is attempted for all subframes of the level
// atomically — either every subframe of the level is placed
// contiguously, or the level fails and the request descends another
// level. The final level degenerates to single processors, so ANCA,
// like the other non-contiguous strategies, succeeds whenever enough
// processors are free.
type ANCA struct {
	m *mesh.Mesh
	// maxLevels bounds the subdivision; at the bound the remaining
	// frames are filled processor by processor.
	maxLevels int
	bufs      pieceBufs
}

// NewANCA builds an ANCA allocator with the conventional 4-level
// subdivision bound before the single-processor fallback.
func NewANCA(m *mesh.Mesh) *ANCA {
	return &ANCA{m: m, maxLevels: 4}
}

// Name implements Allocator.
func (a *ANCA) Name() string { return "ANCA" }

// Mesh implements Allocator.
func (a *ANCA) Mesh() *mesh.Mesh { return a.m }

// Allocate implements Allocator.
func (a *ANCA) Allocate(req Request) (Allocation, bool) {
	validate(a.m, req)
	if req.Size() > a.m.FreeCount() {
		return Allocation{}, false
	}
	frames := []Request{req}
	for level := 0; level <= a.maxLevels; level++ {
		if pieces, ok := a.tryLevel(frames); ok {
			return Allocation{Pieces: pieces, Logical: len(frames)}, true
		}
		next, splittable := splitFrames(frames)
		if !splittable {
			break
		}
		frames = next
	}
	// Single-processor fallback: take free processors in row-major
	// order (the level where every frame is a single processor),
	// streamed off the occupancy index without materializing the whole
	// free list.
	pieces := a.bufs.get()
	for c := range a.m.FreeSeq() {
		pieces = append(pieces, mesh.SubAt3D(c.X, c.Y, c.Z, 1, 1, 1))
		if len(pieces) == req.Size() {
			break
		}
	}
	return commit(a.m, pieces), true
}

// tryLevel attempts to place every frame contiguously; on any failure
// the already-placed frames are rolled back. A frame placed across a
// torus seam occupies several planar pieces, all tracked for rollback.
func (a *ANCA) tryLevel(frames []Request) ([]mesh.Submesh, bool) {
	placed := a.bufs.get()
	for _, f := range frames {
		s, ok := a.m.FirstFit3D(f.W, f.L, f.Depth())
		if !ok && f.W != f.L {
			s, ok = a.m.FirstFit3D(f.L, f.W, f.Depth())
		}
		if !ok {
			for _, p := range placed {
				if err := a.m.ReleaseSub(p); err != nil {
					panic("alloc: anca rollback failed: " + err.Error())
				}
			}
			a.bufs.put(placed)
			return nil, false
		}
		n := len(placed)
		placed = a.m.SplitWrap(placed, s)
		for _, part := range placed[n:] {
			if err := a.m.AllocateSub(part); err != nil {
				panic("alloc: anca placed busy frame: " + err.Error())
			}
		}
	}
	return placed, true
}

// splitFrames halves each frame along its longest side (depth splits
// only when it strictly exceeds both planar sides, so 2D behaviour is
// untouched); single-processor frames cannot split. It reports whether
// any frame was split.
func splitFrames(frames []Request) ([]Request, bool) {
	out := make([]Request, 0, 2*len(frames))
	split := false
	for _, f := range frames {
		d := f.Depth()
		if f.W == 1 && f.L == 1 && d == 1 {
			out = append(out, f)
			continue
		}
		split = true
		switch {
		case d > f.W && d > f.L:
			h := (d + 1) / 2
			out = append(out, Request{W: f.W, L: f.L, H: h})
			if d-h > 0 {
				out = append(out, Request{W: f.W, L: f.L, H: d - h})
			}
		case f.W >= f.L:
			h := (f.W + 1) / 2
			out = append(out, Request{W: h, L: f.L, H: d})
			if f.W-h > 0 {
				out = append(out, Request{W: f.W - h, L: f.L, H: d})
			}
		default:
			h := (f.L + 1) / 2
			out = append(out, Request{W: f.W, L: h, H: d})
			if f.L-h > 0 {
				out = append(out, Request{W: f.W, L: f.L - h, H: d})
			}
		}
	}
	return out, split
}

// Release implements Allocator.
func (a *ANCA) Release(al Allocation) { a.bufs.release(a.m, al) }
