package mesh

import (
	"fmt"
	"testing"
)

// TestWarmOpsAllocateNothing holds each warm occupancy operation to
// fewer than one heap allocation per op, on meshes with 40% of their
// cells scattered busy: the constrained-largest searches on planar and
// torus meshes, with and without failed cells; the Fail/Recover cycle;
// the word-parallel primitives at one-, four- and sixteen-word rows
// (masked fit probes, free-run extraction, the planar sweep and the
// projected-plane 3D sweep); and AllocateSub/ReleaseSub round trips
// over a fixed tiling, with no search in the loop. Each row is a setup
// and the op it returns. The 1024-wide rows and the larger fault and
// mutation sizes skip under -short.
func TestWarmOpsAllocateNothing(t *testing.T) {
	type setup = func(t *testing.T) (op func())
	frag := func(t *testing.T, m *Mesh) *Mesh {
		fragment(t, m, 9, 0.4)
		return m
	}
	// pin fails n free cells spread evenly over the free list.
	pin := func(t *testing.T, m *Mesh, n int) {
		free := m.FreeNodes()
		for i := 0; i < n; i++ {
			if err := m.Fail(free[i*len(free)/n]); err != nil {
				t.Fatal(err)
			}
		}
	}
	planar := func(n int) func() *Mesh { return func() *Mesh { return New(n, n) } }
	torus := func(n int) func() *Mesh { return func() *Mesh { return NewTorus(n, n) } }
	largest := func(build func() *Mesh, pinned bool, maxW, maxL, maxArea int) setup {
		return func(t *testing.T) func() {
			m := frag(t, build())
			if pinned {
				pin(t, m, m.Size()/64)
			}
			return func() { m.LargestFree(maxW, maxL, maxArea) }
		}
	}
	failRecover := func(n int) setup {
		return func(t *testing.T) func() {
			m := frag(t, New(n, n))
			c := m.FreeNodes()[0]
			return func() {
				if err := m.Fail(c); err != nil {
					t.Fatal(err)
				}
				if err := m.Recover(c); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// churn tiles the mesh at half density with bw x bl x bh blocks,
	// all allocated, pins cells of the free half, and returns a
	// ReleaseSub+AllocateSub round trip on the next block, warmed once
	// over every block.
	churn := func(build func() *Mesh, bw, bl, bh, pins int) setup {
		return func(t *testing.T) func() {
			m := build()
			var boxes []Submesh
			for z := 0; z+bh <= m.h; z += 2 * bh {
				for y := 0; y+bl <= m.l; y += 2 * bl {
					for x := 0; x+bw <= m.w; x += 2 * bw {
						boxes = append(boxes, SubAt3D(x, y, z, bw, bl, bh))
					}
				}
			}
			for _, s := range boxes {
				if err := m.AllocateSub(s); err != nil {
					t.Fatal(err)
				}
			}
			if pins > 0 {
				pin(t, m, pins)
			}
			i := 0
			op := func() {
				s := boxes[i%len(boxes)]
				i++
				if err := m.ReleaseSub(s); err != nil {
					t.Fatal(err)
				}
				if err := m.AllocateSub(s); err != nil {
					t.Fatal(err)
				}
			}
			for range boxes {
				op()
			}
			return op
		}
	}
	type row struct {
		name  string
		full  bool // skipped under -short
		setup setup
	}
	rows := []row{
		{"search/largest_free/64x64/mesh", false, largest(planar(64), false, 32, 32, 512)},
		{"search/largest_free/64x64/torus", false, largest(torus(64), false, 32, 32, 512)},
		{"search/largest_free/256x256/mesh", false, largest(planar(256), false, 128, 128, 4096)},
		{"search/largest_free/256x256/torus", false, largest(torus(256), false, 128, 128, 4096)},
		{"fault/largest_free/64x64/mesh", false, largest(planar(64), true, 32, 32, 512)},
		{"fault/fail_recover/64x64/mesh", false, failRecover(64)},
		{"fault/largest_free/256x256/mesh", true, largest(planar(256), true, 128, 128, 4096)},
		{"fault/largest_free/64x64/torus", true, largest(torus(64), true, 32, 32, 512)},
		{"fault/fail_recover/256x256/mesh", true, failRecover(256)},
		{"mutate/sub_churn/256x256", false, churn(planar(256), 8, 8, 1, 0)},
		{"mutate/sub_churn/1024x1024", true, churn(planar(1024), 8, 8, 1, 0)},
		{"mutate/sub_churn/64x64x16", true, churn(func() *Mesh { return New3D(64, 64, 16) }, 8, 8, 4, 0)},
		{"mutate/sub_churn/1024x1024/pinned", true, churn(planar(1024), 8, 8, 1, 1024)},
	}
	for _, n := range []int{64, 256, 1024} {
		full := n == 1024
		rows = append(rows,
			row{fmt.Sprintf("bitboard/fits_at/%d", n), full, func(t *testing.T) func() {
				m := frag(t, New(n, n))
				i := 0
				return func() {
					m.FitsAt(i*31%(n-8), i*17%(n-8), 8, 8)
					i++
				}
			}},
			row{fmt.Sprintf("bitboard/free_runs/%d", n), full, func(t *testing.T) func() {
				m := frag(t, New(n, n))
				return func() {
					c := 0
					for range m.FreeSeq() {
						c++
					}
					if c == 0 {
						t.Fatal("no free processors")
					}
				}
			}},
			row{fmt.Sprintf("bitboard/sweep/%d", n), full, largest(planar(n), false, n/2, n/2, n*n/16)},
			row{fmt.Sprintf("bitboard/proj3d/%d", n), full, func(t *testing.T) func() {
				m := frag(t, New3D(n, n, 4))
				return func() { m.LargestFree3D(n/2, n/2, 2, n*n/8) }
			}},
		)
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.full && testing.Short() {
				t.Skip("full-size row")
			}
			if avg := testing.AllocsPerRun(10, r.setup(t)); avg != 0 {
				t.Errorf("%v allocations per op, want 0", avg)
			}
		})
	}
}
