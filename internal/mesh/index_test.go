package mesh

// White-box cross-checks of the occupancy index. The bitboard words are
// the only occupancy store, so every naive reference scan below runs
// against the busy map derived from them (busySnapshot); checkTables
// verifies the word invariants (geometry, sealed tail bits, freeCount,
// on-demand runs, the row pruning test), and the per-cell model
// (model_test.go) that calls it after every random mutation holds the
// words to the cells each operation should have left busy. The searches
// must return exactly what the seed's exhaustive scans returned.

import (
	"hash/fnv"
	"math/bits"
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
// recomputes of the busy map it encodes, on every plane-row of a 2D or
// 3D mesh.
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
	// Row pruning: rowFitsWidth answers "a free run of at least w" for
	// every plane-row exactly at the row's widest run, on one-word and
	// multi-word rows alike.
	for r := 0; r < m.rows(); r++ {
		widest := 0
		for x := 0; x < m.w; x++ {
			widest = max(widest, wantRun[r*m.w+x])
		}
		if widest > 0 && !m.rowFitsWidth(m.rowWords(r), widest) {
			t.Fatalf("rowFitsWidth(%d, %d) = false, widest run is %d\n%s", r, widest, widest, m)
		}
		if m.rowFitsWidth(m.rowWords(r), widest+1) {
			t.Fatalf("rowFitsWidth(%d, %d) = true, widest run is %d\n%s", r, widest+1, widest, m)
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
	// pin, and the counters match the mark words, cell by cell and by
	// popcount — so no mark bit sits past W, and the derived busy map
	// the checks above ran against is exactly allocated ∪ pinned.
	pc, oc := 0, 0
	for i := range busy {
		p := markSet(m, m.pinned, m.CoordOf(i))
		o := markSet(m, m.overlay, m.CoordOf(i))
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
	if m.pinned != nil && (len(m.pinned) != len(m.freeW) || len(m.overlay) != len(m.freeW)) {
		t.Fatalf("pin marks hold %d/%d words, freeW %d", len(m.pinned), len(m.overlay), len(m.freeW))
	}
	pw, ow := 0, 0
	for i := range m.pinned {
		pw += bits.OnesCount64(m.pinned[i])
		ow += bits.OnesCount64(m.overlay[i])
	}
	if pw != pc || ow != oc {
		t.Fatalf("pin mark words hold %d/%d bits, their cells %d/%d", pw, ow, pc, oc)
	}
}

// markSet reports whether cell c's bit is set in a pin-mark bitboard
// (pinned or overlay); nil marks read clear.
func markSet(m *Mesh, marks []uint64, c Coord) bool {
	if marks == nil {
		return false
	}
	i, b := m.cellBit(c)
	return marks[i]&b != 0
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
		if got := m.FreeInRect(s); got != s.Area()-want {
			t.Fatalf("FreeInRect(%v) = %d, scan says %d", s, got, s.Area()-want)
		}
		if got := m.SubFree(s); got != (want == 0) {
			t.Fatalf("SubFree(%v) = %v, scan says %v", s, got, want == 0)
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
	checkWalk(t, m, w, l, 1, 0)
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

// checkWalk drives the window walk (walk.go) of a w x l x h window
// over the plane window from z, from base row 0 to its end, and holds
// it to the reference run-table walks — torusBlockedUntil on a torus,
// blockedUntil on a planar mesh, blockedUntil3D in 3D: every base row
// it skips has no fitting base, and every base row it yields has one
// and carries exactly the reference's bases as its mask bits below W
// (on a mesh, with no bit set at or past W).
func checkWalk(t *testing.T, m *Mesh, w, l, h, z int) {
	t.Helper()
	fits := func(x, y int) bool {
		switch {
		case m.torus:
			return m.torusBlockedUntil(x, y, w, l) == 0
		case x+w > m.w:
			return false
		case m.h == 1:
			return m.blockedUntil(x, y, w, l) == 0
		}
		return m.blockedUntil3D(x, y, z, w, l, h) == 0
	}
	last := m.l - l
	if m.torus {
		last = m.l - 1
	}
	k := m.newWalk(m.slabOf(z, h), w, l)
	for base := 0; ; {
		y, mask, ok := k.next()
		if !ok {
			y = last + 1
		} else if y < base || y > last {
			t.Fatalf("%dx%dx%d walk at z=%d yielded base row %d after %d (last %d)\n%s", w, l, h, z, y, base-1, last, m)
		}
		for ; base < y; base++ {
			for x := 0; x < m.w; x++ {
				if fits(x, base) {
					t.Fatalf("%dx%dx%d walk at z=%d skipped base row %d, but (%d,%d) fits\n%s", w, l, h, z, base, x, base, m)
				}
			}
		}
		if !ok {
			return
		}
		limit, n := 64*len(mask), 0
		if m.torus {
			limit = m.w // the band's second copy repeats the bases
		}
		for x := 0; x < limit; x++ {
			want := x < m.w && fits(x, y)
			if got := mask[x>>6]>>uint(x&63)&1 == 1; got != want {
				t.Fatalf("%dx%dx%d walk at z=%d: mask bit %d of base row %d = %v; run tables say %v\n%s", w, l, h, z, x, y, got, want, m)
			}
			if want {
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%dx%dx%d walk at z=%d yielded base row %d, which has no fit\n%s", w, l, h, z, y, m)
		}
		base = y + 1
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

// checkTorusRows holds every wrapped run (runAt) to the naive torus
// runs, and the walk's ring width check (ringFitsWidth) exact at each
// row's widest wrapped run: true there, false one past it.
func checkTorusRows(t *testing.T, m *Mesh) {
	t.Helper()
	run := naiveTorusRun(busySnapshot(m), m.w, m.l)
	for y := 0; y < m.l; y++ {
		widest := 0
		for x := 0; x < m.w; x++ {
			if got := m.runAt(x, y); got != run[y*m.w+x] {
				t.Fatalf("runAt(%d,%d) = %d, naive says %d\n%s", x, y, got, run[y*m.w+x], m)
			}
			widest = max(widest, run[y*m.w+x])
		}
		if widest > 0 && !m.ringFitsWidth(m.rowWords(y), widest) {
			t.Fatalf("ringFitsWidth(row %d, %d) = false, widest wrapped run is %d\n%s", y, widest, widest, m)
		}
		if widest < m.w && m.ringFitsWidth(m.rowWords(y), widest+1) {
			t.Fatalf("ringFitsWidth(row %d, %d) = true, widest wrapped run is %d\n%s", y, widest+1, widest, m)
		}
	}
}

// checkTorusQueries cross-checks the wrap-aware queries and all three
// searches against the naive torus scans on the current occupancy.
func checkTorusQueries(t *testing.T, m *Mesh, rng *rand.Rand) {
	t.Helper()
	if !m.torus {
		t.Fatal("checkTorusQueries on a planar mesh")
	}
	checkTorusRows(t, m)
	for i := 0; i < 8; i++ {
		x, y := rng.Intn(m.w), rng.Intn(m.l)
		rw, rl := 1+rng.Intn(m.w), 1+rng.Intn(m.l)
		s := SubAt(x, y, rw, rl)
		wantBusy := naiveTorusBusy(m, x, y, rw, rl)
		if got := m.FreeInRect(s); got != s.Area()-wantBusy {
			t.Fatalf("torus FreeInRect(%v) = %d, naive says %d", s, got, s.Area()-wantBusy)
		}
		if got := m.SubFree(s); got != (wantBusy == 0) {
			t.Fatalf("torus SubFree(%v) = %v, naive says %v\n%s", s, got, wantBusy == 0, m)
		}
		checkSplitWrap(t, m, s)
	}
	// The torus is depth 1: a box whose z extent is not plane 0 alone is
	// off the mesh, never free and counting nothing.
	for i := 0; i < 8; i++ {
		s := SubAt(rng.Intn(m.w), rng.Intn(m.l), 1+rng.Intn(m.w), 1+rng.Intn(m.l))
		s.Z1, s.Z2 = rng.Intn(3)-1, rng.Intn(3)-1
		if s.Z1 == 0 && s.Z2 == 0 {
			continue
		}
		if m.SubFree(s) || m.FreeInRect(s) != 0 {
			t.Fatalf("torus box %v off plane 0: SubFree %v, FreeInRect %d; want false, 0",
				s, m.SubFree(s), m.FreeInRect(s))
		}
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
	checkWalk(t, m, w, l, 1, 0)
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
// model, covering the per-cell bit flips and the duplicate rollback.
func TestIndexOracleCellOps(t *testing.T) {
	runCellOps(t, New(11, 13), 43, 1500, checkQueries) // odd sides: no alignment accidents
}

// FuzzIndexOps interprets the fuzz input as a mutation program over a
// small mesh and runs every instruction through the per-cell model, so
// each verdict and the cells each instruction leaves busy are checked
// at once. The same program runs on a planar mesh, a torus mesh, a 3D
// mesh, and a planar mesh and a torus two words wide: the mutation
// paths are topology- and dimension-independent, so all five must stay
// sound, and the queries and searches are cross-checked against their
// naive scans at the end. The 3D mesh receives the planar rectangle
// extruded to a cuboid whose z extent is derived from the op byte, so
// in-bounds, out-of-bounds and overlapping cuboids all occur. The
// 70-wide meshes receive it scaled to columns 8·x1 .. 8·x2+10, so boxes
// lie in either word, straddle bit 64, or run past either edge; on the
// 70-wide torus the searches walk two-word rows, whose seam runs are
// carried across a word boundary. Bit 0x80 of the op selects release
// over allocation, and bits 0x60 the kind: 0 a box (AllocateSub,
// ReleaseSub), 0x40 a fault of the box's base cell (Fail, Recover),
// 0x60 the box's cells as one scattered request (Allocate, Release),
// its base listed twice when bit 0x10 is set. Releases that land on
// pinned cells exercise the overlay paths. The search shapes are drawn
// from a source seeded with a hash of the whole input, so every input
// asks its own shapes: the checks' one shape per model, then six more
// per model, every other one with sides up to 4 (checkSearchShapes).
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 2, 1, 0, 0, 0x80, 1, 1, 3, 3})
	f.Add([]byte{0, 1, 1, 3, 4, 0, 0, 0, 7, 8, 0x80, 1, 1, 3, 4})
	f.Add([]byte{0, 0, 0, 7, 8, 0x80, 0, 0, 7, 8, 0, 2, 3, 5, 5})
	f.Add([]byte{0x41, 3, 3, 0, 0, 0, 1, 1, 5, 5, 0x80, 1, 1, 5, 5, 0xc1, 3, 3, 0, 0})
	f.Add([]byte{0x42, 2, 2, 0, 0, 0x43, 5, 5, 0, 0, 0, 0, 0, 7, 8, 0x80, 0, 0, 7, 8})
	f.Add([]byte{0x61, 1, 1, 3, 2, 0x41, 2, 1, 0, 0, 0xe1, 1, 1, 3, 2, 0x71, 4, 4, 5, 5, 0x61, 4, 4, 5, 5})
	// On the 70-wide mesh: allocate columns 8..66, fail column 64 under
	// it, release the box — the overlay sits in the second word, left of
	// the first word's mask.
	f.Add([]byte{0, 2, 1, 8, 2, 0x40, 9, 1, 9, 1, 0x80, 2, 1, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		models := []*cellModel{
			newCellModel(New(8, 9)),
			newCellModel(NewTorus(8, 9)),
			newCellModel(New3D(8, 9, 4)),
			newCellModel(New(70, 9)),
			newCellModel(NewTorus(70, 9)),
		}
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		for len(data) >= 5 {
			op, x1, y1, x2, y2 := data[0], data[1], data[2], data[3], data[4]
			data = data[5:]
			s := Sub(int(x1)%10-1, int(y1)%11-1, int(x2)%10-1, int(y2)%11-1)
			for _, cm := range models {
				b := s
				switch {
				case cm.m.h > 1:
					b.Z1 = int(op&0x0f)%6 - 1
					b.Z2 = b.Z1 + int(op>>4&0x07)%4
				case cm.m.w > 64:
					b.X1, b.X2 = 8*s.X1, 8*s.X2+10
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
		checkQueries(t, models[3].m, rng)
		checkTorusQueries(t, models[4].m, rng)
		for _, cm := range models {
			checkSearchShapes(t, cm.m, rng)
		}
	})
}

// checkSearchShapes holds FirstFit3D, BestFit3D and the window walk to
// the naive scans on six request shapes drawn from rng, every other one
// small (sides up to 4, depth 1, the requests whose candidates the
// BestFit scorer's bound and filter prune hardest).
func checkSearchShapes(t *testing.T, m *Mesh, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < 6; i++ {
		w, l, h := 1+rng.Intn(m.w), 1+rng.Intn(m.l), 1+rng.Intn(m.h)
		if i%2 == 0 {
			w, l, h = 1+rng.Intn(min(4, m.w)), 1+rng.Intn(min(4, m.l)), 1
		}
		var want Submesh
		var wantOK bool
		switch {
		case m.torus:
			want, wantOK = naiveTorusFirstFit(m, w, l)
		case m.h > 1:
			want, wantOK = naiveFirstFit3D(m, w, l, h)
		default:
			want, wantOK = seedFirstFit(m, w, l)
		}
		if got, ok := m.FirstFit3D(w, l, h); got != want || ok != wantOK {
			t.Fatalf("FirstFit3D(%d,%d,%d) = %v,%v; naive scan says %v,%v\n%s", w, l, h, got, ok, want, wantOK, m)
		}
		checkBestFit(t, m, w, l, h)
		checkWalk(t, m, w, l, h, rng.Intn(m.h-h+1))
	}
}
