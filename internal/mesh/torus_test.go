package mesh

// Table-driven wrap-around placement cases: runs crossing the x seam,
// rectangles crossing one or both seams, full-ring rows, and the
// searches preferring or requiring seam-crossing placements. The
// randomized cross-checks live in index_test.go (checkTorusQueries);
// these cases pin the specific seam behaviours the docs promise.

import "testing"

// fill allocates the given planar rectangles or fails the test.
func fill(t *testing.T, m *Mesh, rects ...Submesh) {
	t.Helper()
	for _, s := range rects {
		if err := m.AllocateSub(s); err != nil {
			t.Fatalf("AllocateSub(%v): %v", s, err)
		}
	}
}

func TestTorusRunCrossesXSeam(t *testing.T) {
	// Row 0 of an 8-wide torus: columns 3..4 busy, rest free. The free
	// run based at 5 wraps the seam: 5,6,7,0,1,2 -> length 6.
	m := NewTorus(8, 3)
	fill(t, m, Sub(3, 0, 4, 0))
	cases := []struct {
		x, want int
	}{
		{0, 3}, // 0,1,2 then busy 3
		{1, 2},
		{2, 1},
		{3, 0}, // busy
		{4, 0}, // busy
		{5, 6}, // wraps: 5,6,7,0,1,2
		{6, 5},
		{7, 4},
	}
	for _, c := range cases {
		if got := m.runAt(c.x, 0); got != c.want {
			t.Errorf("runAt(%d,0) = %d, want %d", c.x, got, c.want)
		}
	}
	// The same occupancy on a planar mesh must not wrap.
	p := New(8, 3)
	fill(t, p, Sub(3, 0, 4, 0))
	if got := p.runAt(5, 0); got != 3 {
		t.Errorf("planar runAt(5,0) = %d, want 3", got)
	}
}

func TestTorusFullRingRow(t *testing.T) {
	// A fully free row is one ring: every base's run is the full width,
	// and a full-width sub-mesh fits at every base of the row.
	m := NewTorus(6, 4)
	fill(t, m, Sub(0, 1, 5, 1)) // block row 1 to isolate row 0
	for x := 0; x < 6; x++ {
		if got := m.runAt(x, 0); got != 6 {
			t.Errorf("runAt(%d,0) = %d, want full ring 6", x, got)
		}
		if !m.SubFree(SubAt(x, 0, 6, 1)) {
			t.Errorf("SubFree(SubAt(%d,0,6,1)) = false on a free ring", x)
		}
		if m.SubFree(SubAt(x, 0, 7, 1)) {
			t.Errorf("SubFree(SubAt(%d,0,7,1)) accepted a width beyond the ring", x)
		}
	}
}

func TestTorusRectCrossesBothSeams(t *testing.T) {
	// 8x6 torus with only the far corner block free-ish: a 4x4 request
	// fits only as the corner-wrapping rectangle based at (6,4),
	// covering columns {6,7,0,1} x rows {4,5,0,1}.
	m := NewTorus(8, 6)
	fill(t, m, Sub(2, 0, 5, 5), Sub(0, 2, 1, 3), Sub(6, 2, 7, 3))
	s := SubAt(6, 4, 4, 4)
	if !m.SubFree(s) {
		t.Fatalf("SubFree(%v) = false for the free corner wrap\n%s", s, m)
	}
	if got := m.FreeInRect(s); got != 16 {
		t.Fatalf("FreeInRect(%v) = %d, want 16", s, got)
	}
	got, ok := m.FirstFit(4, 4)
	if !ok || got != s {
		t.Fatalf("FirstFit(4,4) = %v,%v; want %v,true\n%s", got, ok, s, m)
	}
	pieces := m.SplitWrap(nil, s)
	if len(pieces) != 4 {
		t.Fatalf("SplitWrap(%v) = %d pieces, want 4", s, len(pieces))
	}
	want := []Submesh{Sub(6, 4, 7, 5), Sub(0, 4, 1, 5), Sub(6, 0, 7, 1), Sub(0, 0, 1, 1)}
	for i, p := range pieces {
		if p != want[i] {
			t.Fatalf("SplitWrap piece %d = %v, want %v", i, p, want[i])
		}
	}
	for _, p := range pieces {
		if err := m.AllocateSub(p); err != nil {
			t.Fatalf("AllocateSub(%v): %v", p, err)
		}
	}
	if m.FreeCount() != 0 {
		t.Fatalf("free count %d after filling the wrap corner, want 0", m.FreeCount())
	}
	if _, ok := m.FirstFit(1, 1); ok {
		t.Fatal("FirstFit found space on a full torus")
	}
}

func TestTorusRectCrossesXSeamOnly(t *testing.T) {
	// Columns 2..5 busy across all rows; a 4x2 fits only wrapping x.
	m := NewTorus(8, 4)
	fill(t, m, Sub(2, 0, 5, 3))
	s, ok := m.FirstFit(4, 2)
	if !ok || s != SubAt(6, 0, 4, 2) {
		t.Fatalf("FirstFit(4,2) = %v,%v; want (6,0)-based wrap", s, ok)
	}
	if ps := m.SplitWrap(nil, s); len(ps) != 2 || ps[0] != Sub(6, 0, 7, 1) || ps[1] != Sub(0, 0, 1, 1) {
		t.Fatalf("SplitWrap(%v) = %v, want [(6,0,7,1) (0,0,1,1)]", s, m.SplitWrap(nil, s))
	}
	// The planar mesh with the same occupancy cannot place it.
	p := New(8, 4)
	fill(t, p, Sub(2, 0, 5, 3))
	if _, ok := p.FirstFit(4, 2); ok {
		t.Fatal("planar FirstFit placed a request that needs the seam")
	}
}

func TestTorusRectCrossesYSeamOnly(t *testing.T) {
	// Rows 2..4 busy; a 2x4 fits only wrapping y (rows 5,6,0,1).
	m := NewTorus(5, 7)
	fill(t, m, Sub(0, 2, 4, 4))
	s, ok := m.FirstFit(2, 4)
	if !ok || s != SubAt(0, 5, 2, 4) {
		t.Fatalf("FirstFit(2,4) = %v,%v; want (0,5)-based wrap", s, ok)
	}
	if ps := m.SplitWrap(nil, s); len(ps) != 2 || ps[0] != Sub(0, 5, 1, 6) || ps[1] != Sub(0, 0, 1, 1) {
		t.Fatalf("SplitWrap(%v) = %v, want [(0,5,1,6) (0,0,1,1)]", s, m.SplitWrap(nil, s))
	}
}

func TestTorusBestFitIgnoresBorder(t *testing.T) {
	// On a torus there is no border to hug: with a single busy block,
	// best-fit must snug against the block, not a (non-existent) edge.
	m := NewTorus(8, 8)
	fill(t, m, Sub(3, 3, 4, 4))
	s, ok := m.BestFit(2, 2)
	if !ok {
		t.Fatal("BestFit failed on a nearly empty torus")
	}
	if got := naiveTorusPressure(m, s.X1, s.Y1, s.W(), s.L()); got != 2 {
		t.Fatalf("BestFit chose %v with pressure %d; the busy block offers 2", s, got)
	}
}

func TestTorusLargestFreeWrapsSeam(t *testing.T) {
	// Columns 3..4 busy: the largest free rectangle wraps the x seam as
	// the 6-wide band based at x=5.
	m := NewTorus(8, 4)
	fill(t, m, Sub(3, 0, 4, 3))
	s, ok := largestFreeAnywhere(m)
	if !ok || s != SubAt(5, 0, 6, 4) {
		t.Fatalf("largestFreeAnywhere = %v,%v; want the seam-wrapping 6x4 band at (5,0)", s, ok)
	}
}

func TestTorusSearchRejectsOversize(t *testing.T) {
	m := NewTorus(6, 5)
	if _, ok := m.FirstFit(7, 1); ok {
		t.Fatal("FirstFit accepted width beyond the ring")
	}
	if _, ok := m.FirstFit(1, 6); ok {
		t.Fatal("FirstFit accepted length beyond the ring")
	}
	if m.SubFree(SubAt(0, 0, 7, 1)) || m.SubFree(SubAt(-1, 0, 2, 2)) || m.SubFree(SubAt(6, 0, 1, 1)) {
		t.Fatal("SubFree accepted an invalid torus candidate")
	}
	if m.SubFree(SubAt(2, 2, 7, 1)) {
		t.Fatal("SubFree accepted width beyond the ring")
	}
}

func TestTorusMeshModeUnchanged(t *testing.T) {
	// The planar constructor must not expose wrap behaviour anywhere:
	// same occupancy, planar searches must clip at the edges.
	m := New(8, 4)
	fill(t, m, Sub(2, 0, 5, 3))
	if m.Torus() {
		t.Fatal("New built a torus")
	}
	if m.SubFree(SubAt(6, 0, 4, 2)) {
		t.Fatal("planar SubFree accepted x+w > W")
	}
	if got := m.FreeInRect(SubAt(6, 0, 4, 2)); got != 0 {
		t.Fatalf("planar FreeInRect of out-of-range rect = %d, want 0", got)
	}
	if len(m.SplitWrap(nil, SubAt(6, 0, 4, 2))) != 1 {
		t.Fatal("planar SplitWrap split a sub-mesh")
	}
}
