package mesh

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestNewMeshAllFree(t *testing.T) {
	m := New(16, 22)
	if m.W() != 16 || m.L() != 22 || m.Size() != 352 {
		t.Fatalf("dims = %dx%d size %d", m.W(), m.L(), m.Size())
	}
	if m.FreeCount() != 352 || m.BusyCount() != 0 {
		t.Fatalf("free=%d busy=%d", m.FreeCount(), m.BusyCount())
	}
	for _, c := range []Coord{{0, 0, 0}, {15, 21, 0}, {7, 10, 0}} {
		if m.Busy(c) {
			t.Fatalf("%v busy in fresh mesh", c)
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, d := range [][2]int{{0, 5}, {5, 0}, {-1, 3}} {
		d := d
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", d[0], d[1])
				}
			}()
			New(d[0], d[1])
		}()
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	m := New(7, 9)
	for i := 0; i < m.Size(); i++ {
		c := m.CoordOf(i)
		if !m.InBounds(c) {
			t.Fatalf("CoordOf(%d) = %v out of bounds", i, c)
		}
		if m.Index(c) != i {
			t.Fatalf("Index(CoordOf(%d)) = %d", i, m.Index(c))
		}
	}
}

func TestAllocateReleaseCycle(t *testing.T) {
	m := New(4, 4)
	nodes := []Coord{{0, 0, 0}, {1, 0, 0}, {2, 3, 0}}
	if err := m.Allocate(nodes); err != nil {
		t.Fatal(err)
	}
	if m.FreeCount() != 13 {
		t.Fatalf("FreeCount = %d, want 13", m.FreeCount())
	}
	for _, c := range nodes {
		if !m.Busy(c) {
			t.Fatalf("%v not busy after Allocate", c)
		}
	}
	if err := m.Release(nodes); err != nil {
		t.Fatal(err)
	}
	if m.FreeCount() != 16 {
		t.Fatalf("FreeCount = %d, want 16", m.FreeCount())
	}
}

func TestAllocateBusyFails(t *testing.T) {
	m := New(4, 4)
	if err := m.Allocate([]Coord{{1, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Allocate([]Coord{{0, 0, 0}, {1, 1, 0}}); err == nil {
		t.Fatal("allocating busy processor succeeded")
	}
	// The failed allocation must not have touched (0,0).
	if m.Busy(Coord{0, 0, 0}) {
		t.Fatal("failed Allocate left side effects")
	}
	if m.FreeCount() != 15 {
		t.Fatalf("FreeCount = %d, want 15", m.FreeCount())
	}
}

func TestAllocateOutOfBoundsFails(t *testing.T) {
	m := New(4, 4)
	for _, c := range []Coord{{4, 0, 0}, {0, 4, 0}, {-1, 0, 0}, {0, -1, 0}} {
		if err := m.Allocate([]Coord{c}); err == nil {
			t.Fatalf("Allocate(%v) succeeded out of bounds", c)
		}
	}
}

func TestAllocateDuplicateFails(t *testing.T) {
	m := New(4, 4)
	if err := m.Allocate([]Coord{{1, 1, 0}, {1, 1, 0}}); err == nil {
		t.Fatal("duplicate coordinates accepted")
	}
	if m.Busy(Coord{1, 1, 0}) || m.FreeCount() != 16 {
		t.Fatal("failed duplicate Allocate left side effects")
	}
}

func TestReleaseFreeFails(t *testing.T) {
	m := New(4, 4)
	if err := m.Release([]Coord{{2, 2, 0}}); err == nil {
		t.Fatal("releasing free processor succeeded")
	}
}

func TestAllocateSubAndSubFree(t *testing.T) {
	m := New(8, 8)
	s := Sub(2, 3, 4, 5) // 3x3
	if !m.SubFree(s) {
		t.Fatal("fresh sub-mesh not free")
	}
	if err := m.AllocateSub(s); err != nil {
		t.Fatal(err)
	}
	if m.SubFree(s) {
		t.Fatal("allocated sub-mesh reported free")
	}
	if m.FreeCount() != 64-9 {
		t.Fatalf("FreeCount = %d", m.FreeCount())
	}
	if err := m.AllocateSub(Sub(4, 5, 6, 7)); err == nil {
		t.Fatal("overlapping AllocateSub succeeded")
	}
	if err := m.ReleaseSub(s); err != nil {
		t.Fatal(err)
	}
	if m.FreeCount() != 64 {
		t.Fatalf("FreeCount after release = %d", m.FreeCount())
	}
}

func TestSubFreeOutOfBounds(t *testing.T) {
	m := New(4, 4)
	if m.SubFree(Sub(2, 2, 4, 3)) {
		t.Fatal("out-of-bounds sub-mesh reported free")
	}
	if m.SubFree(Sub(3, 3, 2, 2)) {
		t.Fatal("invalid (base>end) sub-mesh reported free")
	}
}

func TestSubmeshGeometry(t *testing.T) {
	s := Sub(0, 0, 2, 1) // the paper's example: 3x2 sub-mesh
	if s.W() != 3 || s.L() != 2 || s.Area() != 6 {
		t.Fatalf("W=%d L=%d Area=%d, want 3,2,6", s.W(), s.L(), s.Area())
	}
	if s.Base() != (Coord{0, 0, 0}) || s.End() != (Coord{2, 1, 0}) {
		t.Fatalf("Base=%v End=%v", s.Base(), s.End())
	}
	if !s.Contains(Coord{1, 1, 0}) || s.Contains(Coord{3, 0, 0}) {
		t.Fatal("Contains wrong")
	}
	if n := len(s.Nodes()); n != 6 {
		t.Fatalf("Nodes = %d, want 6", n)
	}
	if !s.Overlaps(Sub(2, 1, 5, 5)) || s.Overlaps(Sub(3, 0, 4, 4)) {
		t.Fatal("Overlaps wrong")
	}
}

func TestSubAt(t *testing.T) {
	s := SubAt(3, 4, 2, 5)
	if s != Sub(3, 4, 4, 8) {
		t.Fatalf("SubAt = %v", s)
	}
}

func TestManhattanDist(t *testing.T) {
	if d := ManhattanDist(Coord{0, 0, 0}, Coord{3, 4, 0}); d != 7 {
		t.Fatalf("dist = %d, want 7", d)
	}
	if d := ManhattanDist(Coord{5, 2, 0}, Coord{1, 2, 0}); d != 4 {
		t.Fatalf("dist = %d, want 4", d)
	}
	if d := ManhattanDist(Coord{2, 2, 0}, Coord{2, 2, 0}); d != 0 {
		t.Fatalf("dist = %d, want 0", d)
	}
}

func TestFreeNodesRowMajor(t *testing.T) {
	m := New(3, 2)
	if err := m.Allocate([]Coord{{1, 0, 0}, {2, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	got := m.FreeNodes()
	want := []Coord{{0, 0, 0}, {2, 0, 0}, {0, 1, 0}, {1, 1, 0}}
	if len(got) != len(want) {
		t.Fatalf("FreeNodes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FreeNodes = %v, want %v", got, want)
		}
	}
}

func TestStringRendersOccupancy(t *testing.T) {
	m := New(3, 2)
	if err := m.Allocate([]Coord{{0, 0, 0}, {2, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	// Row y=1 on top: "..#", row y=0 below: "#..".
	want := "..#\n#..\n"
	if got := m.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestReset(t *testing.T) {
	m := New(4, 4)
	if err := m.AllocateSub(Sub(0, 0, 3, 3)); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if m.FreeCount() != 16 {
		t.Fatal("Reset did not free everything")
	}
	if _, ok := m.FirstFit(4, 4); !ok {
		t.Fatal("FirstFit fails after Reset")
	}
}

// Property: Allocate then Release of random valid free node sets always
// restores the exact free count and occupancy.
func TestPropertyAllocateReleaseRestores(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		m := New(16, 22)
		s := stats.NewStream(seed)
		// Pre-occupy some random processors.
		pre := randomFree(m, s, 50)
		if err := m.Allocate(pre); err != nil {
			return false
		}
		before := snapshot(m)
		n := int(nRaw%64) + 1
		nodes := randomFree(m, s, n)
		if len(nodes) == 0 {
			return true
		}
		if err := m.Allocate(nodes); err != nil {
			return false
		}
		if err := m.Release(nodes); err != nil {
			return false
		}
		return snapshot(m) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randomFree(m *Mesh, s *stats.Stream, n int) []Coord {
	free := m.FreeNodes()
	if n > len(free) {
		n = len(free)
	}
	perm := s.Perm(len(free))
	out := make([]Coord, 0, n)
	for _, i := range perm[:n] {
		out = append(out, free[i])
	}
	return out
}

func snapshot(m *Mesh) string {
	b := make([]byte, m.Size())
	for i := 0; i < m.Size(); i++ {
		if m.Busy(m.CoordOf(i)) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
