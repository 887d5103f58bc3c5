package mesh

// Tests of the constrained-largest search's mesh-sized kernel on its
// own: the one slab sweep's MW(d, l) table — planar, torus and 3D
// alike — against a brute force over every window of rows and planes.
// LargestFree's results are held to the reference scans elsewhere
// (histogram_test.go), but a table entry at a length that never wins
// is never checked there.

import (
	"math/rand"
	"slices"
	"testing"
)

// occupyWhere marks busy every cell of the fresh mesh m for which busy
// holds.
func occupyWhere(tb testing.TB, m *Mesh, busy func(x, y, z int) bool) {
	tb.Helper()
	var cells []Coord
	for z := 0; z < m.h; z++ {
		for y := 0; y < m.l; y++ {
			for x := 0; x < m.w; x++ {
				if busy(x, y, z) {
					cells = append(cells, Coord{x, y, z})
				}
			}
		}
	}
	if err := m.Allocate(cells); err != nil {
		tb.Fatal(err)
	}
}

// longestFreeRun returns the longest run of set entries in free, read
// as a ring when wrap is set (capped at the ring length).
func longestFreeRun(free []bool, wrap bool) int {
	best, run := 0, 0
	n := len(free)
	if wrap {
		n *= 2
	}
	for i := 0; i < n; i++ {
		if free[i%len(free)] {
			run++
			best = max(best, run)
		} else {
			run = 0
		}
	}
	return min(best, len(free))
}

// bruteMaxWidths computes MW(d, l) for d in 1..maxH and l in 1..maxL
// straight off the cells: the widest free run of the AND of every
// window of d planes and l rows, rows and runs wrapping on a torus.
// The table is indexed mw[(d-1)*(maxL+1)+l], column 0 zero.
func bruteMaxWidths(m *Mesh, maxL, maxH int) []int {
	mw := make([]int, maxH*(maxL+1))
	and := make([]bool, m.w)
	bases := m.l
	for d := 1; d <= maxH; d++ {
		for l := 1; l <= maxL; l++ {
			if !m.torus {
				bases = m.l - l + 1
			}
			for z := 0; z+d <= m.h; z++ {
				for y := 0; y < bases; y++ {
					for x := range and {
						and[x] = true
						for zz := z; zz < z+d; zz++ {
							for yy := y; yy < y+l; yy++ {
								and[x] = and[x] && m.freeBitAt(m.rowIdx(yy%m.l, zz), x)
							}
						}
					}
					i := (d-1)*(maxL+1) + l
					mw[i] = max(mw[i], longestFreeRun(and, m.torus))
				}
			}
		}
	}
	return mw
}

// checkMaxWidths holds the mesh's MW table for the caps (maxH at most
// the depth) to the brute force: one maxWidths call on every fabric.
func checkMaxWidths(t *testing.T, m *Mesh, maxL, maxH int) {
	t.Helper()
	got := m.maxWidths(maxL, maxH)
	if want := bruteMaxWidths(m, maxL, maxH); !slices.Equal(got, want) {
		t.Fatalf("%dx%dx%d torus=%v maxL=%d maxH=%d: MW table\n got %v\nwant %v\n%s",
			m.w, m.l, m.h, m.torus, maxL, maxH, got, want, m)
	}
}

// TestMaxWidthTablesMatchBruteForce drives the planar, torus and 3D
// sweeps over random meshes 1–70 wide, so rows cross the 64-bit word
// boundary, at coarse and fine fragmentation, with fully busy rows
// (the sweep's reset shortcut) and fully free rows (the dominated-row
// shortcut on the row before) forced in, at several height caps. A
// third of the meshes are striped: each plane's rows copy one of 2–3
// palette rows in runs of 1..l rows, so the sweep's bands of identical
// slab rows run past every maxL asked, may wrap from row L−1 to row 0
// on a torus, and on 3D are runs of the slab that no one plane has.
func TestMaxWidthTablesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 450; trial++ {
		w, l, h := 1+rng.Intn(70), 1+rng.Intn(9), 1
		var m *Mesh
		switch trial % 3 {
		case 0:
			m = New(w, l)
		case 1:
			m = NewTorus(w, l)
		default:
			h = 2 + rng.Intn(3)
			m = New3D(w, l, h)
		}
		// Blocks of up to g x g cells at density p: g = 1 scatters
		// single cells, larger g leaves wide plateaus of equal height.
		g, p := 1+rng.Intn(8), rng.Float64()
		blocks := make([]bool, (w/g+1)*(l/g+1)*h)
		for i := range blocks {
			blocks[i] = rng.Float64() < p
		}
		var palette [][]bool // a striped mesh's rows, in g-wide blocks
		stripe := make([]int, h*l)
		if (trial/3)%3 == 2 {
			palette = make([][]bool, 2+rng.Intn(2))
			busy := false
			for i := range palette {
				palette[i] = make([]bool, w)
				for x := range palette[i] {
					if x%g == 0 {
						busy = rng.Float64() < p
					}
					palette[i][x] = busy
				}
			}
			for r := 0; r < h*l; { // plane-row r = z·l + y
				c, n := rng.Intn(len(palette)), 1+rng.Intn(l)
				for end := min(r+n, (r/l+1)*l); r < end; r++ {
					stripe[r] = c // a run ends with its plane
				}
			}
		}
		rowKind := make([]int, l) // 0 blocks, 1 fully busy, 2 fully free
		for y := range rowKind {
			if rng.Intn(4) == 0 {
				rowKind[y] = 1 + rng.Intn(2)
			}
		}
		occupyWhere(t, m, func(x, y, z int) bool {
			switch {
			case rowKind[y] != 0:
				return rowKind[y] == 1
			case palette != nil:
				return palette[stripe[z*l+y]][x]
			}
			return blocks[(z*(l/g+1)+y/g)*(w/g+1)+x/g]
		})
		for _, maxL := range []int{1, l, 1 + rng.Intn(l), max(1, l-1)} {
			checkMaxWidths(t, m, maxL, 1+rng.Intn(h))
		}
	}
}

// FuzzLargestFree reads the fuzz input as an occupancy: bits 0–1 of
// the first byte pick a block width g in 1..4 and bits 2–3 a row-height
// factor f in 1..4, and bit i of the rest (wrapping) marks the i-th
// g x g·f block busy, so one input exercises fine and coarse
// fragmentation alike, and runs of identical rows as long as the small
// meshes (the sweep's bands). Each of a 65-wide and a small planar
// mesh, a 65-wide and a small torus and a 3D mesh takes the occupancy,
// so rows cross the 64-bit word boundary; LargestFree (LargestFree3D)
// must match the reference scan under request-shaped, area-capped and
// fuzzed caps, and every MW table must match the brute force.
func FuzzLargestFree(f *testing.F) {
	f.Add([]byte{0, 0x5a, 0x3c, 0x0f, 7, 3, 20})
	f.Add([]byte{1, 0xff, 0x00, 0xff, 0x81, 2, 5, 9})
	f.Add([]byte{3, 0x10, 0x20, 0x40, 0x80, 0x01})
	f.Add([]byte{2, 0xfe, 0xfd, 0xfb, 0xf7, 0xef, 0xdf, 0xbf, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g, bits := 1+int(data[0]&3), data[1:]
		gl := g * (1 + int(data[0]>>2&3)) // a block's rows
		for _, m := range []*Mesh{New(65, 4), New(9, 7), NewTorus(8, 9), NewTorus(65, 3), New3D(7, 6, 3)} {
			bw, bl := (m.w+g-1)/g, (m.l+gl-1)/gl
			occupyWhere(t, m, func(x, y, z int) bool {
				i := ((z*bl+y/gl)*bw + x/g) % (8 * len(bits))
				return bits[i/8]>>(i%8)&1 != 0
			})
			rng := rand.New(rand.NewSource(int64(len(data))))
			caps := append(capCombos(m, rng), [3]int{
				1 + int(bits[0])%m.w, 1 + int(bits[len(bits)-1])%m.l, 1 + int(data[0])*int(bits[0])%(m.w*m.l),
			})
			for _, c := range caps {
				if m.h == 1 {
					checkLargestAgainstScan(t, m, c[0], c[1], c[2])
					continue
				}
				maxH := 1 + c[2]%m.h
				got, okG := m.LargestFree3D(c[0], c[1], maxH, c[2])
				want, okW := m.largestFreeScan3D(c[0], c[1], maxH, c[2])
				if okG != okW || got != want {
					t.Fatalf("LargestFree3D(%d,%d,%d,%d): sweep %v,%v; scan %v,%v\n%s",
						c[0], c[1], maxH, c[2], got, okG, want, okW, m)
				}
			}
			for maxL := 1; maxL <= m.l; maxL++ {
				checkMaxWidths(t, m, maxL, m.h)
			}
		}
	})
}
