package mesh

// White-box cross-checks of the occupancy index. The bitboard words are
// the only occupancy store, so every naive reference scan below runs
// against the busy map derived from them (busySnapshot); checkTables
// verifies the word invariants (geometry, sealed tail bits, freeCount,
// on-demand runs, lazy aggregates), and the per-cell model
// (model_test.go) that calls it after every random mutation holds the
// words to the cells each operation should have left busy. The searches
// must return exactly what the seed's exhaustive scans returned.

import (
	"math/rand"
	"testing"
)

// busySnapshot derives the per-cell busy map from the authoritative
// bitboard words — the view every naive reference scan runs against.
func busySnapshot(m *Mesh) []bool {
	out := make([]bool, m.Size())
	for r := 0; r < m.rows(); r++ {
		row := r * m.w
		for x := 0; x < m.w; x++ {
			out[row+x] = !m.freeBitAt(r, x)
		}
	}
	return out
}

// naiveRightRun is the seed's full-rebuild refresh.
func naiveRightRun(busy []bool, w, l int) []int {
	out := make([]int, w*l)
	for y := 0; y < l; y++ {
		run := 0
		for x := w - 1; x >= 0; x-- {
			i := y*w + x
			if busy[i] {
				run = 0
			} else {
				run++
			}
			out[i] = run
		}
	}
	return out
}

// checkTables verifies the authoritative word state against full
// recomputes of the busy map it encodes. It is depth-aware: a 2D mesh
// exercises exactly the planar invariants, a 3D one additionally the
// plane aggregates.
func checkTables(t *testing.T, m *Mesh) {
	t.Helper()
	busy := busySnapshot(m)
	wantRun := naiveRightRun(busy, m.w, m.l*m.h)
	// Word invariants: exact geometry, sealed tail bits, and on-demand
	// run reads matching the from-scratch run recompute.
	if m.wpr != wordsPerRow(m.w) || len(m.freeW) != m.rows()*m.wpr {
		t.Fatalf("bitboard geometry wpr=%d len=%d, want %d words x %d rows",
			m.wpr, len(m.freeW), wordsPerRow(m.w), m.rows())
	}
	for r := 0; r < m.rows(); r++ {
		words := m.rowWords(r)
		for x := 0; x < m.w; x++ {
			if got := m.runAtBits(r, x); got != wantRun[r*m.w+x] {
				t.Fatalf("runAtBits(%d, %d) = %d, run recompute says %d\n%s",
					r, x, got, wantRun[r*m.w+x], m)
			}
		}
		for b := m.w; b < m.wpr*64; b++ {
			if words[b>>6]>>uint(b&63)&1 == 1 {
				t.Fatalf("freeW tail bit %d of row %d set\n%s", b, r, m)
			}
		}
	}
	for r := 0; r < m.rows(); r++ {
		max := 0
		for x := 0; x < m.w; x++ {
			if rr := wantRun[r*m.w+x]; rr > max {
				max = rr
			}
		}
		// A stale aggregate must still bound the true maximum from
		// above; a fresh one must be exact and well-positioned, and
		// rowMaxAt must repair staleness to exactness.
		if m.rowStale[r] {
			if m.rowMax[r] < max {
				t.Fatalf("stale rowMax[%d] = %d below true max %d\n%s", r, m.rowMax[r], max, m)
			}
			if got := m.rowMaxAt(r); got != max {
				t.Fatalf("rowMaxAt(%d) = %d after repair, recompute says %d\n%s", r, got, max, m)
			}
		}
		if m.rowMax[r] != max {
			t.Fatalf("rowMax[%d] = %d, recompute says %d\n%s", r, m.rowMax[r], max, m)
		}
		if max > 0 && wantRun[r*m.w+m.rowMaxPos[r]] != max {
			t.Fatalf("rowMaxPos[%d] = %d does not point at a run of %d\n%s",
				r, m.rowMaxPos[r], max, m)
		}
	}
	for z := 0; z < m.h; z++ {
		rowsMax := 0
		for r := z * m.l; r < (z+1)*m.l; r++ {
			if m.rowMax[r] > rowsMax {
				rowsMax = m.rowMax[r]
			}
		}
		// The plane aggregate bounds the row aggregates from above, with
		// equality when fresh; planeMaxRescan must restore equality.
		if m.planeMax[z] < rowsMax {
			t.Fatalf("planeMax[%d] = %d below row aggregate max %d\n%s", z, m.planeMax[z], rowsMax, m)
		}
		if !m.planeStale[z] && m.planeMax[z] != rowsMax {
			t.Fatalf("fresh planeMax[%d] = %d, row aggregates say %d\n%s", z, m.planeMax[z], rowsMax, m)
		}
		if m.planeStale[z] {
			m.planeMaxRescan(z)
			if m.planeMax[z] != rowsMax {
				t.Fatalf("planeMaxRescan(%d) = %d, row aggregates say %d\n%s", z, m.planeMax[z], rowsMax, m)
			}
		}
	}
	nbusy := 0
	for _, b := range busy {
		if b {
			nbusy++
		}
	}
	if m.freeCount != m.Size()-nbusy {
		t.Fatalf("freeCount = %d, words say %d", m.freeCount, m.Size()-nbusy)
	}
	// Pin bookkeeping (fault.go): every pin is busy, every overlay is a
	// pin, and the counters match the maps — so the derived busy map the
	// checks above ran against is exactly allocated ∪ pinned.
	pc, oc := 0, 0
	for i := range busy {
		p := m.pinned != nil && m.pinned[i]
		o := m.overlay != nil && m.overlay[i]
		if o && !p {
			t.Fatalf("overlay without pin at %v\n%s", m.CoordOf(i), m)
		}
		if p && !busy[i] {
			t.Fatalf("pinned cell %v not busy\n%s", m.CoordOf(i), m)
		}
		if p {
			pc++
		}
		if o {
			oc++
		}
	}
	if pc != m.pinnedCount || oc != m.overlayCount {
		t.Fatalf("pinnedCount/overlayCount = %d/%d, pin maps say %d/%d",
			m.pinnedCount, m.overlayCount, pc, oc)
	}
}

// seedFitsAt is the seed's per-base probe: min rightRun over the rows.
func seedFitsAt(run []int, meshW, x, y, w, l int) bool {
	for yy := y; yy < y+l; yy++ {
		if run[yy*meshW+x] < w {
			return false
		}
	}
	return true
}

// seedFirstFit is the seed's exhaustive row-major scan.
func seedFirstFit(m *Mesh, w, l int) (Submesh, bool) {
	if w <= 0 || l <= 0 || w > m.w || l > m.l {
		return Submesh{}, false
	}
	run := naiveRightRun(busySnapshot(m), m.w, m.l)
	for y := 0; y+l <= m.l; y++ {
		for x := 0; x+w <= m.w; x++ {
			if seedFitsAt(run, m.w, x, y, w, l) {
				return SubAt(x, y, w, l), true
			}
		}
	}
	return Submesh{}, false
}

// seedBoundaryPressure is the seed's per-cell perimeter walk.
func seedBoundaryPressure(m *Mesh, s Submesh) int {
	score := 0
	cell := func(x, y int) {
		if x < 0 || x >= m.w || y < 0 || y >= m.l {
			score++
			return
		}
		if !m.freeBitAt(y, x) {
			score++
		}
	}
	for x := s.X1; x <= s.X2; x++ {
		cell(x, s.Y1-1)
		cell(x, s.Y2+1)
	}
	for y := s.Y1; y <= s.Y2; y++ {
		cell(s.X1-1, y)
		cell(s.X2+1, y)
	}
	return score
}

// seedBestFit is the seed's exhaustive scored scan.
func seedBestFit(m *Mesh, w, l int) (Submesh, bool) {
	if w <= 0 || l <= 0 || w > m.w || l > m.l {
		return Submesh{}, false
	}
	run := naiveRightRun(busySnapshot(m), m.w, m.l)
	best := Submesh{}
	bestScore := -1
	for y := 0; y+l <= m.l; y++ {
		for x := 0; x+w <= m.w; x++ {
			if !seedFitsAt(run, m.w, x, y, w, l) {
				continue
			}
			s := SubAt(x, y, w, l)
			if score := seedBoundaryPressure(m, s); score > bestScore {
				bestScore = score
				best = s
			}
		}
	}
	if bestScore < 0 {
		return Submesh{}, false
	}
	return best, true
}

// seedLargestFree is the seed's unpruned constrained-largest scan,
// verbatim: every anchor, every height, no upper-bound skips.
func seedLargestFree(m *Mesh, maxW, maxL, maxArea int) (Submesh, bool) {
	if maxW <= 0 || maxL <= 0 || maxArea <= 0 {
		return Submesh{}, false
	}
	if maxW > m.w {
		maxW = m.w
	}
	if maxL > m.l {
		maxL = m.l
	}
	run := naiveRightRun(busySnapshot(m), m.w, m.l)
	var (
		best      Submesh
		bestArea  int
		bestSkew  int
		bestFound bool
	)
	for y := 0; y < m.l; y++ {
		for x := 0; x < m.w; x++ {
			minRun := m.w + 1
			for l := 1; l <= maxL && y+l-1 < m.l; l++ {
				r := run[(y+l-1)*m.w+x]
				if r == 0 {
					break
				}
				if r < minRun {
					minRun = r
				}
				w := minRun
				if w > maxW {
					w = maxW
				}
				if w*l > maxArea {
					w = maxArea / l
				}
				if w == 0 {
					continue
				}
				area := w * l
				skew := w - l
				if skew < 0 {
					skew = -skew
				}
				if area > bestArea || (area == bestArea && bestFound && skew < bestSkew) {
					best = SubAt(x, y, w, l)
					bestArea = area
					bestSkew = skew
					bestFound = true
				}
			}
		}
	}
	return best, bestFound
}

// naiveBusyInRect counts busy cells by walking the rectangle.
func naiveBusyInRect(m *Mesh, s Submesh) int {
	n := 0
	for y := s.Y1; y <= s.Y2; y++ {
		for x := s.X1; x <= s.X2; x++ {
			if !m.freeBitAt(y, x) {
				n++
			}
		}
	}
	return n
}

// checkQueries cross-checks the O(1) queries and both searches against
// the seed's scans on the current occupancy.
func checkQueries(t *testing.T, m *Mesh, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < 8; i++ {
		x1, y1 := rng.Intn(m.w), rng.Intn(m.l)
		s := Sub(x1, y1, x1+rng.Intn(m.w-x1), y1+rng.Intn(m.l-y1))
		want := naiveBusyInRect(m, s)
		if got := m.BusyInRect(s); got != want {
			t.Fatalf("BusyInRect(%v) = %d, scan says %d\n%s", s, got, want, m)
		}
		if got := m.FreeInRect(s); got != s.Area()-want {
			t.Fatalf("FreeInRect(%v) = %d, scan says %d", s, got, s.Area()-want)
		}
		if got := m.SubFree(s); got != (want == 0) {
			t.Fatalf("SubFree(%v) = %v, scan says %v", s, got, want == 0)
		}
		if got := m.FitsAt(s.X1, s.Y1, s.W(), s.L()); got != (want == 0) {
			t.Fatalf("FitsAt(%v) = %v, scan says %v", s, got, want == 0)
		}
	}
	w, l := 1+rng.Intn(m.w), 1+rng.Intn(m.l)
	gotFF, okFF := m.FirstFit(w, l)
	wantFF, wantOkFF := seedFirstFit(m, w, l)
	if okFF != wantOkFF || gotFF != wantFF {
		t.Fatalf("FirstFit(%d,%d) = %v,%v; seed scan says %v,%v\n%s",
			w, l, gotFF, okFF, wantFF, wantOkFF, m)
	}
	gotBF, okBF := m.BestFit(w, l)
	wantBF, wantOkBF := seedBestFit(m, w, l)
	if okBF != wantOkBF || gotBF != wantBF {
		t.Fatalf("BestFit(%d,%d) = %v,%v; seed scan says %v,%v\n%s",
			w, l, gotBF, okBF, wantBF, wantOkBF, m)
	}
	checkCandidatesRow(t, m, rng.Intn(m.l-l+1), w, l)
	for _, caps := range [][3]int{{w, l, w * l}, {w, l, 1 + rng.Intn(w*l)}, {m.w, m.l, m.w * m.l}} {
		gotLF, okLF := m.LargestFree(caps[0], caps[1], caps[2])
		wantLF, wantOkLF := seedLargestFree(m, caps[0], caps[1], caps[2])
		if okLF != wantOkLF || gotLF != wantLF {
			t.Fatalf("LargestFree(%d,%d,%d) = %v,%v; seed scan says %v,%v\n%s",
				caps[0], caps[1], caps[2], gotLF, okLF, wantLF, wantOkLF, m)
		}
		// The retained pruned scan must agree too (histogram_test.go
		// drives this differential much harder).
		refLF, refOkLF := m.largestFreeScan(caps[0], caps[1], caps[2])
		if okLF != refOkLF || gotLF != refLF {
			t.Fatalf("LargestFree(%d,%d,%d) = %v,%v; retained scan says %v,%v\n%s",
				caps[0], caps[1], caps[2], gotLF, okLF, refLF, refOkLF, m)
		}
	}
}

// candidatesByRunTable enumerates every fit base in row y through the
// retained run-table walk (blockedUntil / torusBlockedUntil) — the
// reference the bitboard fit-mask enumeration is tested against.
func candidatesByRunTable(m *Mesh, y, w, l int) []int {
	out := []int{}
	if w <= 0 || l <= 0 || w > m.w || l > m.l {
		return out
	}
	if m.torus {
		for x := 0; x < m.w; x++ {
			if m.torusBlockedUntil(x, y, w, l) == 0 {
				out = append(out, x)
			}
		}
		return out
	}
	if y+l > m.l {
		return out
	}
	for x := 0; x+w <= m.w; x++ {
		if m.blockedUntil(x, y, w, l) == 0 {
			out = append(out, x)
		}
	}
	return out
}

// checkCandidatesRow cross-checks the word-parallel CandidatesRow
// enumeration against the run-table walk for one (y, w, l) query: same
// bases, same left-to-right order.
func checkCandidatesRow(t *testing.T, m *Mesh, y, w, l int) {
	t.Helper()
	want := candidatesByRunTable(m, y, w, l)
	i := 0
	for x := range m.CandidatesRow(y, w, l) {
		if i >= len(want) || want[i] != x {
			t.Fatalf("CandidatesRow(%d,%d,%d) yields %d at index %d; run tables say %v\n%s",
				y, w, l, x, i, want, m)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("CandidatesRow(%d,%d,%d) yielded %d bases; run tables say %v\n%s",
			y, w, l, i, want, m)
	}
}

// naiveTorusRun computes wrap-around free runs: the run at (x,y) is
// the count of consecutive free processors x, x+1 mod w, ... capped at
// the ring size w.
func naiveTorusRun(busy []bool, w, l int) []int {
	out := make([]int, w*l)
	for y := 0; y < l; y++ {
		for x := 0; x < w; x++ {
			r := 0
			for r < w && !busy[y*w+(x+r)%w] {
				r++
			}
			out[y*w+x] = r
		}
	}
	return out
}

// naiveTorusFits walks every cell of the wrapped rw x rl rectangle
// based at (x, y) modulo the ring sizes.
func naiveTorusFits(m *Mesh, x, y, rw, rl int) bool {
	for j := 0; j < rl; j++ {
		for i := 0; i < rw; i++ {
			if !m.freeBitAt((y+j)%m.l, (x+i)%m.w) {
				return false
			}
		}
	}
	return true
}

// naiveTorusBusy counts busy cells of the wrapped rectangle.
func naiveTorusBusy(m *Mesh, x, y, rw, rl int) int {
	n := 0
	for j := 0; j < rl; j++ {
		for i := 0; i < rw; i++ {
			if !m.freeBitAt((y+j)%m.l, (x+i)%m.w) {
				n++
			}
		}
	}
	return n
}

// naiveTorusFirstFit scans every grid base in row-major order over the
// wrapped candidate space.
func naiveTorusFirstFit(m *Mesh, w, l int) (Submesh, bool) {
	if w <= 0 || l <= 0 || w > m.w || l > m.l {
		return Submesh{}, false
	}
	for y := 0; y < m.l; y++ {
		for x := 0; x < m.w; x++ {
			if naiveTorusFits(m, x, y, w, l) {
				return SubAt(x, y, w, l), true
			}
		}
	}
	return Submesh{}, false
}

// naiveTorusPressure counts busy perimeter neighbours of the wrapped
// candidate; a side spanning its whole ring has no perimeter there.
func naiveTorusPressure(m *Mesh, x, y, rw, rl int) int {
	score := 0
	cell := func(cx, cy int) {
		if !m.freeBitAt((cy+m.l)%m.l, (cx+m.w)%m.w) {
			score++
		}
	}
	if rl < m.l {
		for i := 0; i < rw; i++ {
			cell(x+i, y-1)
			cell(x+i, y+rl)
		}
	}
	if rw < m.w {
		for j := 0; j < rl; j++ {
			cell(x-1, y+j)
			cell(x+rw, y+j)
		}
	}
	return score
}

// naiveTorusBestFit is the exhaustive scored scan over the wrapped
// candidate space.
func naiveTorusBestFit(m *Mesh, w, l int) (Submesh, bool) {
	if w <= 0 || l <= 0 || w > m.w || l > m.l {
		return Submesh{}, false
	}
	best := Submesh{}
	bestScore := -1
	for y := 0; y < m.l; y++ {
		for x := 0; x < m.w; x++ {
			if !naiveTorusFits(m, x, y, w, l) {
				continue
			}
			if score := naiveTorusPressure(m, x, y, w, l); score > bestScore {
				bestScore = score
				best = SubAt(x, y, w, l)
			}
		}
	}
	if bestScore < 0 {
		return Submesh{}, false
	}
	return best, true
}

// naiveTorusLargestFree is the unpruned constrained-largest scan over
// the wrapped candidate space: every anchor, every height, wrap-aware
// runs, no upper-bound skips.
func naiveTorusLargestFree(m *Mesh, maxW, maxL, maxArea int) (Submesh, bool) {
	if maxW <= 0 || maxL <= 0 || maxArea <= 0 {
		return Submesh{}, false
	}
	if maxW > m.w {
		maxW = m.w
	}
	if maxL > m.l {
		maxL = m.l
	}
	run := naiveTorusRun(busySnapshot(m), m.w, m.l)
	var (
		best      Submesh
		bestArea  int
		bestSkew  int
		bestFound bool
	)
	for y := 0; y < m.l; y++ {
		for x := 0; x < m.w; x++ {
			minRun := m.w + 1
			for l := 1; l <= maxL; l++ {
				r := run[((y+l-1)%m.l)*m.w+x]
				if r == 0 {
					break
				}
				if r < minRun {
					minRun = r
				}
				w := minRun
				if w > maxW {
					w = maxW
				}
				if w*l > maxArea {
					w = maxArea / l
				}
				if w == 0 {
					continue
				}
				area := w * l
				skew := abs(w - l)
				if area > bestArea || (area == bestArea && bestFound && skew < bestSkew) {
					best = SubAt(x, y, w, l)
					bestArea = area
					bestSkew = skew
					bestFound = true
				}
			}
		}
	}
	return best, bestFound
}

// checkTorusQueries cross-checks the wrap-aware queries and all three
// searches against the naive torus scans on the current occupancy.
func checkTorusQueries(t *testing.T, m *Mesh, rng *rand.Rand) {
	t.Helper()
	if !m.torus {
		t.Fatal("checkTorusQueries on a planar mesh")
	}
	run := naiveTorusRun(busySnapshot(m), m.w, m.l)
	for y := 0; y < m.l; y++ {
		rowMax := 0
		for x := 0; x < m.w; x++ {
			if got := m.runAt(x, y); got != run[y*m.w+x] {
				t.Fatalf("runAt(%d,%d) = %d, naive says %d\n%s", x, y, got, run[y*m.w+x], m)
			}
			if run[y*m.w+x] > rowMax {
				rowMax = run[y*m.w+x]
			}
		}
		if got := m.rowBoundAt(y); got < rowMax || got > m.w {
			t.Fatalf("rowBoundAt(%d) = %d outside [%d, %d]\n%s", y, got, rowMax, m.w, m)
		}
	}
	for i := 0; i < 8; i++ {
		x, y := rng.Intn(m.w), rng.Intn(m.l)
		rw, rl := 1+rng.Intn(m.w), 1+rng.Intn(m.l)
		s := SubAt(x, y, rw, rl)
		wantBusy := naiveTorusBusy(m, x, y, rw, rl)
		if got := m.BusyInRect(s); got != wantBusy {
			t.Fatalf("torus BusyInRect(%v) = %d, naive says %d\n%s", s, got, wantBusy, m)
		}
		if got := m.FreeInRect(s); got != s.Area()-wantBusy {
			t.Fatalf("torus FreeInRect(%v) = %d, naive says %d", s, got, s.Area()-wantBusy)
		}
		if got := m.SubFree(s); got != (wantBusy == 0) {
			t.Fatalf("torus SubFree(%v) = %v, naive says %v\n%s", s, got, wantBusy == 0, m)
		}
		if got := m.FitsAt(x, y, rw, rl); got != (wantBusy == 0) {
			t.Fatalf("torus FitsAt(%d,%d,%d,%d) = %v, naive says %v", x, y, rw, rl, got, wantBusy == 0)
		}
		checkSplitWrap(t, m, s)
	}
	w, l := 1+rng.Intn(m.w), 1+rng.Intn(m.l)
	gotFF, okFF := m.FirstFit(w, l)
	wantFF, wantOkFF := naiveTorusFirstFit(m, w, l)
	if okFF != wantOkFF || gotFF != wantFF {
		t.Fatalf("torus FirstFit(%d,%d) = %v,%v; naive scan says %v,%v\n%s",
			w, l, gotFF, okFF, wantFF, wantOkFF, m)
	}
	gotBF, okBF := m.BestFit(w, l)
	wantBF, wantOkBF := naiveTorusBestFit(m, w, l)
	if okBF != wantOkBF || gotBF != wantBF {
		t.Fatalf("torus BestFit(%d,%d) = %v,%v; naive scan says %v,%v\n%s",
			w, l, gotBF, okBF, wantBF, wantOkBF, m)
	}
	checkCandidatesRow(t, m, rng.Intn(m.l), w, l)
	for _, caps := range [][3]int{{w, l, w * l}, {w, l, 1 + rng.Intn(w*l)}, {m.w, m.l, m.w * m.l}} {
		gotLF, okLF := m.LargestFree(caps[0], caps[1], caps[2])
		wantLF, wantOkLF := naiveTorusLargestFree(m, caps[0], caps[1], caps[2])
		if okLF != wantOkLF || gotLF != wantLF {
			t.Fatalf("torus LargestFree(%d,%d,%d) = %v,%v; naive scan says %v,%v\n%s",
				caps[0], caps[1], caps[2], gotLF, okLF, wantLF, wantOkLF, m)
		}
		refLF, refOkLF := m.largestFreeScan(caps[0], caps[1], caps[2])
		if okLF != refOkLF || gotLF != refLF {
			t.Fatalf("torus LargestFree(%d,%d,%d) = %v,%v; retained scan says %v,%v\n%s",
				caps[0], caps[1], caps[2], gotLF, okLF, refLF, refOkLF, m)
		}
	}
}

// checkSplitWrap verifies the seam decomposition: planar, in-bounds,
// disjoint pieces covering exactly the wrapped rectangle's cells.
func checkSplitWrap(t *testing.T, m *Mesh, s Submesh) {
	t.Helper()
	pieces := m.SplitWrap(nil, s)
	covered := map[Coord]bool{}
	for _, p := range pieces {
		if !p.Valid() || !m.InBounds(p.Base()) || !m.InBounds(p.End()) {
			t.Fatalf("SplitWrap(%v): piece %v not planar in-bounds", s, p)
		}
		for _, c := range p.Nodes() {
			if covered[c] {
				t.Fatalf("SplitWrap(%v): cell %v covered twice", s, c)
			}
			covered[c] = true
		}
	}
	if len(covered) != s.Area() {
		t.Fatalf("SplitWrap(%v): covers %d cells, want %d", s, len(covered), s.Area())
	}
	for j := 0; j < s.L(); j++ {
		for i := 0; i < s.W(); i++ {
			c := Coord{X: (s.X1 + i) % m.w, Y: (s.Y1 + j) % m.l}
			if !covered[c] {
				t.Fatalf("SplitWrap(%v): cell %v not covered", s, c)
			}
		}
	}
}

// TestTorusOracleRectOps drives random possibly-seam-crossing
// allocate/release sequences on a torus through the model, committing
// each free wrapped rectangle as its SplitWrap pieces, and checks the
// wrap-aware queries and searches against naive scans every 25 steps.
func TestTorusOracleRectOps(t *testing.T) {
	runBoxOps(t, NewTorus(16, 22), 53, 1200, checkTorusQueries)
}

// TestIndexOracleRectOps drives random sub-mesh allocate/release
// sequences through the model — including failed operations, which
// must not disturb the index — and checks the search results against
// the seed's scans every 25 steps.
func TestIndexOracleRectOps(t *testing.T) {
	runBoxOps(t, New(16, 22), 41, 2500, checkQueries)
}

// TestIndexOracleCellOps drives random scattered (per-processor)
// allocate/release sequences and their doomed variants through the
// model, covering the per-cell aggregate settle and the duplicate
// rollback.
func TestIndexOracleCellOps(t *testing.T) {
	runCellOps(t, New(11, 13), 43, 1500, checkQueries) // odd sides: no alignment accidents
}

// FuzzIndexOps interprets the fuzz input as a mutation program over a
// small mesh and runs every instruction through the per-cell model, so
// each verdict and the cells each instruction leaves busy are checked
// at once. The same program runs on a planar mesh, a torus mesh and a
// 3D mesh: the mutation paths are topology- and dimension-independent,
// so all three must stay sound, and the torus and volumetric queries
// are cross-checked against their naive scans at the end. The 3D mesh
// receives the planar rectangle extruded to a cuboid whose z extent is
// derived from the op byte, so in-bounds, out-of-bounds and
// overlapping cuboids all occur. Bit 0x80 of the op selects release
// over allocation, and bits 0x60 the kind: 0 a box (AllocateSub,
// ReleaseSub), 0x40 a fault of the box's base cell (Fail, Recover),
// 0x60 the box's cells as one scattered request (Allocate, Release),
// its base listed twice when bit 0x10 is set. Releases that land on
// pinned cells exercise the overlay paths.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 2, 1, 0, 0, 0x80, 1, 1, 3, 3})
	f.Add([]byte{0, 1, 1, 3, 4, 0, 0, 0, 7, 8, 0x80, 1, 1, 3, 4})
	f.Add([]byte{0, 0, 0, 7, 8, 0x80, 0, 0, 7, 8, 0, 2, 3, 5, 5})
	f.Add([]byte{0x41, 3, 3, 0, 0, 0, 1, 1, 5, 5, 0x80, 1, 1, 5, 5, 0xc1, 3, 3, 0, 0})
	f.Add([]byte{0x42, 2, 2, 0, 0, 0x43, 5, 5, 0, 0, 0, 0, 0, 7, 8, 0x80, 0, 0, 7, 8})
	f.Add([]byte{0x61, 1, 1, 3, 2, 0x41, 2, 1, 0, 0, 0xe1, 1, 1, 3, 2, 0x71, 4, 4, 5, 5, 0x61, 4, 4, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		models := []*cellModel{
			newCellModel(New(8, 9)),
			newCellModel(NewTorus(8, 9)),
			newCellModel(New3D(8, 9, 4)),
		}
		rng := rand.New(rand.NewSource(7))
		for len(data) >= 5 {
			op, x1, y1, x2, y2 := data[0], data[1], data[2], data[3], data[4]
			data = data[5:]
			s := Sub(int(x1)%10-1, int(y1)%11-1, int(x2)%10-1, int(y2)%11-1)
			for _, cm := range models {
				b := s
				if cm.m.h > 1 {
					b.Z1 = int(op&0x0f)%6 - 1
					b.Z2 = b.Z1 + int(op>>4&0x07)%4
				}
				release := op&0x80 != 0
				switch op & 0x60 {
				case 0x40:
					if release {
						cm.recoverCell(t, b.Base())
					} else {
						cm.failCell(t, b.Base())
					}
				case 0x60:
					nodes := b.Nodes()
					if op&0x10 != 0 && len(nodes) > 0 {
						nodes = append(nodes, nodes[0])
					}
					if release {
						cm.release(t, nodes)
					} else {
						cm.allocate(t, nodes)
					}
				default:
					if release {
						cm.releaseSub(t, b)
					} else {
						cm.allocSub(t, b)
					}
				}
			}
		}
		checkQueries(t, models[0].m, rng)
		checkTorusQueries(t, models[1].m, rng)
		checkQueries3D(t, models[2].m, rng)
	})
}
