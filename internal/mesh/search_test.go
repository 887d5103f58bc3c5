package mesh

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// paperExample builds the 4x4 mesh of the paper's Fig. 1: allocated
// processors shaded such that no free 2x2 sub-mesh exists while 4
// processors remain free.
func paperExample(t *testing.T) *Mesh {
	t.Helper()
	m := New(4, 4)
	// Fig. 1 shows S = (0,0,2,1) allocated plus a diagonal-ish pattern;
	// we reconstruct an occupancy with exactly 4 scattered free nodes.
	busy := []Coord{
		{0, 0, 0}, {1, 0, 0}, {2, 0, 0},
		{0, 1, 0}, {1, 1, 0}, {2, 1, 0},
		{1, 2, 0}, {3, 2, 0},
		{0, 3, 0}, {2, 3, 0}, {3, 3, 0}, {3, 0, 0},
	}
	if err := m.Allocate(busy); err != nil {
		t.Fatal(err)
	}
	if m.FreeCount() != 4 {
		t.Fatalf("example has %d free, want 4", m.FreeCount())
	}
	return m
}

func TestFirstFitFindsContiguous(t *testing.T) {
	m := New(8, 8)
	s, ok := m.FirstFit(3, 2)
	if !ok {
		t.Fatal("FirstFit failed on empty mesh")
	}
	if s != Sub(0, 0, 2, 1) {
		t.Fatalf("FirstFit = %v, want base (0,0)", s)
	}
}

func TestFirstFitPaperScenario(t *testing.T) {
	m := paperExample(t)
	// The paper: a 2x2 request fails contiguously but 4 free processors
	// exist for non-contiguous allocation.
	if _, ok := m.FirstFit(2, 2); ok {
		t.Fatal("FirstFit found a 2x2 sub-mesh that should not exist")
	}
	if m.FreeCount() < 4 {
		t.Fatal("fewer than 4 free processors")
	}
}

func TestFirstFitSkipsBusy(t *testing.T) {
	m := New(4, 4)
	if err := m.AllocateSub(Sub(0, 0, 1, 3)); err != nil {
		t.Fatal(err)
	}
	s, ok := m.FirstFit(2, 2)
	if !ok {
		t.Fatal("FirstFit failed")
	}
	if s.X1 < 2 {
		t.Fatalf("FirstFit = %v overlaps busy columns", s)
	}
	if !m.SubFree(s) {
		t.Fatalf("FirstFit returned non-free %v", s)
	}
}

func TestFirstFitRejectsOversize(t *testing.T) {
	m := New(4, 4)
	if _, ok := m.FirstFit(5, 1); ok {
		t.Fatal("FirstFit found sub-mesh wider than mesh")
	}
	if _, ok := m.FirstFit(1, 5); ok {
		t.Fatal("FirstFit found sub-mesh longer than mesh")
	}
	if _, ok := m.FirstFit(0, 1); ok {
		t.Fatal("FirstFit accepted zero width")
	}
}

func TestBestFitPrefersCrevice(t *testing.T) {
	m := New(8, 8)
	// Build a U-shaped pocket around (5,1)-(6,2): busy above, below and
	// to the right. Its 6 busy-contact sides strictly beat any corner's
	// 4 border-contact sides.
	for _, s := range []Submesh{Sub(5, 0, 7, 0), Sub(5, 3, 7, 3), Sub(7, 1, 7, 2)} {
		if err := m.AllocateSub(s); err != nil {
			t.Fatal(err)
		}
	}
	bf, ok := m.BestFit(2, 2)
	if !ok {
		t.Fatal("BestFit failed")
	}
	if !m.SubFree(bf) {
		t.Fatalf("BestFit returned non-free %v", bf)
	}
	if bf != Sub(5, 1, 6, 2) {
		t.Fatalf("BestFit = %v, want the pocket (5,1,6,2)", bf)
	}
}

func TestBestFitCornersOnEmptyMesh(t *testing.T) {
	m := New(6, 6)
	s, ok := m.BestFit(2, 2)
	if !ok {
		t.Fatal("BestFit failed on empty mesh")
	}
	// On an empty mesh a corner maximizes border contact.
	corner := (s.X1 == 0 || s.X2 == 5) && (s.Y1 == 0 || s.Y2 == 5)
	if !corner {
		t.Fatalf("BestFit = %v, want a corner placement", s)
	}
}

func TestLargestFreeEmptyMesh(t *testing.T) {
	m := New(16, 22)
	s, ok := m.LargestFreeAnywhere()
	if !ok {
		t.Fatal("LargestFreeAnywhere failed on empty mesh")
	}
	if s.Area() != 352 {
		t.Fatalf("largest free area = %d, want 352", s.Area())
	}
}

func TestLargestFreeRespectsCaps(t *testing.T) {
	m := New(16, 22)
	s, ok := m.LargestFree(4, 5, 1000)
	if !ok {
		t.Fatal("LargestFree failed")
	}
	if s.W() > 4 || s.L() > 5 {
		t.Fatalf("LargestFree = %v exceeds side caps", s)
	}
	if s.Area() != 20 {
		t.Fatalf("area = %d, want 20", s.Area())
	}

	s, ok = m.LargestFree(10, 10, 7)
	if !ok {
		t.Fatal("LargestFree failed with area cap")
	}
	if s.Area() > 7 {
		t.Fatalf("area = %d exceeds cap 7", s.Area())
	}
	if s.Area() < 6 {
		t.Fatalf("area = %d, expected at least 6 (e.g. 1x6 within cap 7)", s.Area())
	}
}

func TestLargestFreeAroundObstacles(t *testing.T) {
	m := New(6, 6)
	// Busy column x=2 splits the mesh into 2-wide and 3-wide bands.
	if err := m.AllocateSub(Sub(2, 0, 2, 5)); err != nil {
		t.Fatal(err)
	}
	s, ok := m.LargestFreeAnywhere()
	if !ok {
		t.Fatal("LargestFree failed")
	}
	if s.Area() != 18 || s.X1 != 3 {
		t.Fatalf("LargestFree = %v (area %d), want 3x6 band area 18", s, s.Area())
	}
	if !m.SubFree(s) {
		t.Fatalf("returned non-free %v", s)
	}
}

func TestLargestFreeNoneAvailable(t *testing.T) {
	m := New(3, 3)
	if err := m.AllocateSub(Sub(0, 0, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.LargestFreeAnywhere(); ok {
		t.Fatal("LargestFree succeeded on full mesh")
	}
	if _, ok := m.LargestFree(0, 3, 9); ok {
		t.Fatal("LargestFree accepted zero cap")
	}
}

func TestLargestFreePrefersSquare(t *testing.T) {
	m := New(8, 8)
	// With area cap 4, both 1x4 and 2x2 exist; prefer 2x2.
	s, ok := m.LargestFree(8, 8, 4)
	if !ok {
		t.Fatal("LargestFree failed")
	}
	if s.W() != 2 || s.L() != 2 {
		t.Fatalf("LargestFree = %v, want square 2x2", s)
	}
}

// Property: whatever FirstFit/BestFit/LargestFree return is free, in
// bounds, and satisfies the requested constraints, under random
// occupancy.
func TestPropertySearchesSound(t *testing.T) {
	f := func(seed int64, wRaw, lRaw uint8) bool {
		m := New(16, 22)
		s := stats.NewStream(seed)
		n := s.Intn(200)
		if err := m.Allocate(randomFree(m, s, n)); err != nil {
			return false
		}
		w := int(wRaw%16) + 1
		l := int(lRaw%22) + 1

		if sub, ok := m.FirstFit(w, l); ok {
			if sub.W() != w || sub.L() != l || !m.SubFree(sub) {
				return false
			}
		}
		if sub, ok := m.BestFit(w, l); ok {
			if sub.W() != w || sub.L() != l || !m.SubFree(sub) {
				return false
			}
		}
		maxArea := s.Intn(100) + 1
		if sub, ok := m.LargestFree(w, l, maxArea); ok {
			if sub.W() > w || sub.L() > l || sub.Area() > maxArea || !m.SubFree(sub) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: FirstFit succeeds iff a brute-force scan finds a free w x l
// sub-mesh.
func TestPropertyFirstFitComplete(t *testing.T) {
	f := func(seed int64, wRaw, lRaw uint8) bool {
		m := New(8, 8)
		s := stats.NewStream(seed)
		if err := m.Allocate(randomFree(m, s, s.Intn(40))); err != nil {
			return false
		}
		w := int(wRaw%8) + 1
		l := int(lRaw%8) + 1
		_, got := m.FirstFit(w, l)
		want := false
		for y := 0; y+l <= 8 && !want; y++ {
			for x := 0; x+w <= 8 && !want; x++ {
				if m.SubFree(SubAt(x, y, w, l)) {
					want = true
				}
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: LargestFree with no caps matches a brute-force maximum-area
// free rectangle search.
func TestPropertyLargestFreeOptimal(t *testing.T) {
	f := func(seed int64) bool {
		m := New(7, 6)
		s := stats.NewStream(seed)
		if err := m.Allocate(randomFree(m, s, s.Intn(30))); err != nil {
			return false
		}
		got, ok := m.LargestFreeAnywhere()
		best := 0
		for y := 0; y < 6; y++ {
			for x := 0; x < 7; x++ {
				for w := 1; x+w <= 7; w++ {
					for l := 1; y+l <= 6; l++ {
						if m.SubFree(SubAt(x, y, w, l)) && w*l > best {
							best = w * l
						}
					}
				}
			}
		}
		if best == 0 {
			return !ok
		}
		return ok && got.Area() == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSlideFitMatchesFrameSlidingSemantics pins the stride pattern:
// frames step by the request sides and the first free frame in
// (z, y, x) stride order wins.
func TestSlideFitMatchesFrameSlidingSemantics(t *testing.T) {
	m := New(8, 8)
	if err := m.AllocateSub(SubAt(0, 0, 4, 4)); err != nil {
		t.Fatal(err)
	}
	s, ok := m.SlideFit(4, 4, 1)
	if !ok || s != SubAt(4, 0, 4, 4) {
		t.Fatalf("SlideFit(4,4) = %v, %v; want the (4,0) frame", s, ok)
	}
	if _, ok := m.SlideFit(5, 5, 1); ok {
		t.Fatal("SlideFit(5,5) found a frame on the stride grid; none exists")
	}
}
