package mesh

// Tests of the constrained-largest search's two mesh-sized kernels on
// their own: the one slab sweep's MW(d, l) table — planar, torus and
// 3D alike — against a brute force over every window of rows and
// planes, and the probe phase's pair heap against the trial-division
// enumeration it replaced. LargestFree's results are held to the
// reference scans elsewhere (histogram_test.go), but a table entry at
// a length that never wins is never checked there — and
// sweepUpperArea still reuses the d = 1 row as upper bounds.

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
// The table is indexed mw[d*(maxL+1)+l], row and column 0 zero.
func bruteMaxWidths(m *Mesh, maxL, maxH int) []int {
	mw := make([]int, (maxH+1)*(maxL+1))
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
					mw[d*(maxL+1)+l] = max(mw[d*(maxL+1)+l], longestFreeRun(and, m.torus))
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
// shortcut on the row before) forced in, at several height caps.
func TestMaxWidthTablesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
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
		rowKind := make([]int, l) // 0 blocks, 1 fully busy, 2 fully free
		for y := range rowKind {
			if rng.Intn(4) == 0 {
				rowKind[y] = 1 + rng.Intn(2)
			}
		}
		occupyWhere(t, m, func(x, y, z int) bool {
			switch rowKind[y] {
			case 1:
				return true
			case 2:
				return false
			}
			return blocks[(z*(l/g+1)+y/g)*(w/g+1)+x/g]
		})
		for _, maxL := range []int{1, l, 1 + rng.Intn(l), max(1, l-1)} {
			checkMaxWidths(t, m, maxL, 1+rng.Intn(h))
		}
	}
}

// trialDivisionPairs is the probe phase's enumeration before the pair
// heap, kept as its reference: areas descending from startArea, each
// area's short sides a from its integer root down to the shortest
// whose long side fits within long, tested for divisibility. It
// returns the pairs (a, b) in order and whether the enumeration ran
// down to area 1 (decided, nothing fits) rather than stopping at the
// area budget (the sweep must settle the call).
func trialDivisionPairs(startArea, long int) (pairs [][2]int, decided bool) {
	areas := areaBudget
	root := 0
	for (root+1)*(root+1) <= startArea {
		root++
	}
	for area := startArea; area >= 1; area-- {
		for root*root > area {
			root--
		}
		if areas--; areas < 0 {
			return pairs, false
		}
		aMin := (area + long - 1) / long
		for a := root; a >= aMin; a-- {
			if area%a == 0 {
				pairs = append(pairs, [2]int{a, area / a})
			}
		}
	}
	return pairs, true
}

// TestPairHeapMatchesTrialDivision holds the pair heap to the trial
// division: the same (a, b) sequence and the same verdict when it
// runs dry, over start areas of 1, primes, squares, long², areas up to
// 1<<20, a long side of 1, and start areas on either side of the area
// budget's cut.
func TestPairHeapMatchesTrialDivision(t *testing.T) {
	var h pairHeap
	starts := []int{0, 1, 2, 3, 7, 97, 1009, 7919, 4, 49, 1024, 4096, 65536,
		areaBudget - 1, areaBudget, areaBudget + 1, 2*areaBudget - 1, 2 * areaBudget,
		2*areaBudget + 1, 1<<20 - 1, 1 << 20}
	for _, long := range []int{1, 2, 5, 16, 22, 64, 256, 1024} {
		for _, start := range append(starts, long*long, long*long-1, long*long+1) {
			want, decided := trialDivisionPairs(start, long)
			var got [][2]int
			h.reset(start, long, start-areaBudget)
			for {
				a, b, ok := h.pop()
				if !ok {
					break
				}
				got = append(got, [2]int{a, b})
			}
			if !slices.Equal(got, want) || h.covered() != decided {
				t.Fatalf("start %d long %d: heap %d pairs (covered %v), trial division %d (decided %v)\n got %v\nwant %v",
					start, long, len(got), h.covered(), len(want), decided, got, want)
			}
		}
	}
}

// FuzzLargestFree reads the fuzz input as an occupancy: the first byte
// picks a block size g in 1..4, and bit i of the rest (wrapping) marks
// the i-th g x g block busy, so one input exercises fine and coarse
// fragmentation alike. Each of a 65-wide and a small planar mesh, a
// 65-wide and a small torus and a 3D mesh takes the occupancy, so rows
// cross the 64-bit word boundary; LargestFree (LargestFree3D)
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
		g, bits := 1+int(data[0]%4), data[1:]
		for _, m := range []*Mesh{New(65, 4), New(9, 7), NewTorus(8, 9), NewTorus(65, 3), New3D(7, 6, 3)} {
			bw, bl := (m.w+g-1)/g, (m.l+g-1)/g
			occupyWhere(t, m, func(x, y, z int) bool {
				i := ((z*bl+y/g)*bw + x/g) % (8 * len(bits))
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
