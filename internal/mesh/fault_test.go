package mesh

// Faulty-mesh churn: randomized sequences interleaving failures,
// recoveries, allocations and releases run through the per-cell model
// (model_test.go), which tells pinned from allocated cells — busy must
// always read as allocated ∪ pinned, and the release paths must never
// free a pin.

import (
	"math/rand"
	"strings"
	"testing"
)

// randCoord draws a coordinate that is occasionally just out of bounds.
func randCoord(m *Mesh, rng *rand.Rand) Coord {
	return Coord{rng.Intn(m.W()+2) - 1, rng.Intn(m.L()+2) - 1, rng.Intn(m.H()+2) - 1}
}

// drawRecover draws a cell to recover — biased towards currently
// pinned cells so recoveries actually happen.
func (cm *cellModel) drawRecover(rng *rand.Rand) Coord {
	m := cm.m
	c := randCoord(m, rng)
	if m.PinnedCount() > 0 && rng.Intn(2) == 0 {
		for tries := 0; tries < 64; tries++ {
			p := Coord{rng.Intn(m.W()), rng.Intn(m.L()), rng.Intn(m.H())}
			if cm.pin[m.Index(p)] {
				return p
			}
		}
	}
	return c
}

// randCuboid draws a cuboid that may hang off the mesh, with sides of
// up to ext cells in x and y and up to two planes.
func randCuboid(m *Mesh, rng *rand.Rand, ext int) Submesh {
	s := Submesh{
		X1: rng.Intn(m.W()+2) - 1, Y1: rng.Intn(m.L()+2) - 1, Z1: rng.Intn(m.H()+2) - 1,
	}
	s.X2 = s.X1 + rng.Intn(ext)
	s.Y2 = s.Y1 + rng.Intn(ext)
	s.Z2 = s.Z1 + rng.Intn(2)
	return s
}

// drawNodes draws one to four distinct in-bounds cells, so a per-node
// Release meets pinned, overlaid and plain-allocated cells.
func drawNodes(m *Mesh, rng *rand.Rand) []Coord {
	n := 1 + rng.Intn(4)
	var nodes []Coord
	seen := map[int]bool{}
	for len(nodes) < n {
		c := Coord{rng.Intn(m.W()), rng.Intn(m.L()), rng.Intn(m.H())}
		if seen[m.Index(c)] {
			continue
		}
		seen[m.Index(c)] = true
		nodes = append(nodes, c)
	}
	return nodes
}

// runFaultChurn churns one mesh with model-checked fault and
// allocation ops, checking the query layer periodically.
func runFaultChurn(t *testing.T, m *Mesh, steps int, queryCheck func(*testing.T, *Mesh, *rand.Rand)) {
	t.Helper()
	if testing.Short() {
		steps /= 4
	}
	cm := newCellModel(m)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0, 1:
			cm.failCell(t, randCoord(m, rng))
		case 2:
			cm.recoverCell(t, cm.drawRecover(rng))
		case 3, 4, 5, 6:
			cm.allocSub(t, randCuboid(m, rng, 4))
		case 7, 8:
			cm.releaseSub(t, randCuboid(m, rng, 3))
		default:
			cm.release(t, drawNodes(m, rng))
		}
		if queryCheck != nil && i%40 == 39 {
			queryCheck(t, m, rng)
		}
	}
}

func TestFaultOraclePlanar(t *testing.T) {
	runFaultChurn(t, New(16, 22), 400, checkQueries)
}

func TestFaultOracle3D(t *testing.T) {
	runFaultChurn(t, New3D(8, 9, 4), 400, checkQueries3D)
}

// TestFaultOracleTorus churns a torus with seam-crossing allocations
// (SplitWrap pieces) interleaved with failures and recoveries: SubFree
// across the seams must agree with the model, and pins inside wrapped
// pieces survive the group's release.
func TestFaultOracleTorus(t *testing.T) {
	m := NewTorus(16, 22)
	cm := newCellModel(m)
	rng := rand.New(rand.NewSource(43))
	var groups [][]Submesh
	steps := 400
	if testing.Short() {
		steps /= 4
	}
	for i := 0; i < steps; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			cm.failCell(t, randCoord(m, rng))
		case 2:
			cm.recoverCell(t, cm.drawRecover(rng))
		case 3, 4, 5:
			s := SubAt(rng.Intn(m.W()), rng.Intn(m.L()), 1+rng.Intn(6), 1+rng.Intn(6))
			if pieces := cm.placeWrapped(t, s); pieces != nil {
				groups = append(groups, pieces)
			}
		default:
			if len(groups) == 0 {
				break
			}
			gi := rng.Intn(len(groups))
			g := groups[gi]
			groups[gi] = groups[len(groups)-1]
			groups = groups[:len(groups)-1]
			for pi := len(g) - 1; pi >= 0; pi-- {
				cm.releaseSub(t, g[pi])
			}
		}
		if i%40 == 39 {
			checkTorusQueries(t, m, rng)
		}
	}
}

// TestReleaseNeverFreesPinned pins the tentpole's core promise: a
// failure landing inside a live allocation survives the allocation's
// release, both through ReleaseSub and through per-node Release.
func TestReleaseNeverFreesPinned(t *testing.T) {
	m := New(8, 8)
	s := SubAt(1, 1, 4, 3)
	if err := m.AllocateSub(s); err != nil {
		t.Fatal(err)
	}
	dead := Coord{2, 2, 0}
	if err := m.Fail(dead); err != nil {
		t.Fatal(err)
	}
	if err := m.ReleaseSub(s); err != nil {
		t.Fatalf("release around the pin: %v", err)
	}
	if !m.Busy(dead) || !m.Pinned(dead) {
		t.Fatalf("pinned cell freed by ReleaseSub\n%s", m)
	}
	if m.FreeCount() != m.Size()-1 || m.AllocatedCount() != 0 {
		t.Fatalf("free=%d alloc=%d after release, want %d/0", m.FreeCount(), m.AllocatedCount(), m.Size()-1)
	}
	// The freed ring is allocatable again; the pin is not.
	if err := m.AllocateSub(s); err == nil {
		t.Fatal("re-allocation over the pin succeeded")
	}
	if err := m.Recover(dead); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocateSub(s); err != nil {
		t.Fatalf("re-allocation after recovery: %v", err)
	}

	// Per-node variant.
	m2 := New(8, 8)
	nodes := SubAt(0, 0, 3, 1).Nodes()
	if err := m2.Allocate(nodes); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fail(Coord{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := m2.Release(nodes); err != nil {
		t.Fatalf("per-node release around the pin: %v", err)
	}
	if !m2.Busy(Coord{1, 0, 0}) || m2.FreeCount() != m2.Size()-1 {
		t.Fatalf("pinned cell freed by Release\n%s", m2)
	}
	// Releasing the bare pin itself is an error.
	if err := m2.Release([]Coord{{1, 0, 0}}); err == nil {
		t.Fatal("release of a bare pin succeeded")
	}
}

// TestRecoverUnderLiveAllocation: recovering a cell whose allocation is
// still live keeps the cell busy until that allocation releases it.
func TestRecoverUnderLiveAllocation(t *testing.T) {
	m := New(6, 6)
	s := SubAt(0, 0, 2, 2)
	if err := m.AllocateSub(s); err != nil {
		t.Fatal(err)
	}
	c := Coord{1, 1, 0}
	if err := m.Fail(c); err != nil {
		t.Fatal(err)
	}
	if err := m.Recover(c); err != nil {
		t.Fatal(err)
	}
	if !m.Busy(c) || m.Pinned(c) {
		t.Fatalf("recovered cell busy=%v pinned=%v, want busy unpinned", m.Busy(c), m.Pinned(c))
	}
	if err := m.ReleaseSub(s); err != nil {
		t.Fatal(err)
	}
	if m.FreeCount() != m.Size() {
		t.Fatalf("free=%d after release, want %d", m.FreeCount(), m.Size())
	}
}

// TestFaultCloneResetString: clones carry the pins, Reset recovers
// them, and the renderer marks failed processors distinctly.
func TestFaultCloneResetString(t *testing.T) {
	cm := newCellModel(New3D(5, 4, 2))
	m := cm.m
	cm.allocSub(t, SubAt3D(0, 0, 0, 2, 2, 1))
	cm.failCell(t, Coord{1, 1, 0}) // overlay
	cm.failCell(t, Coord{4, 3, 1}) // bare pin
	n := cm.clone(t)
	if n.m.String() != m.String() {
		t.Fatalf("clone renders differently:\n%s\nvs\n%s", n.m, m)
	}
	// The clone's pins are independent state.
	n.recoverCell(t, Coord{4, 3, 1})
	cm.verify(t)
	if got := strings.Count(m.String(), "x"); got != 2 {
		t.Fatalf("String renders %d 'x' cells, want 2:\n%s", got, m)
	}
	cm.reset(t)
}

// TestTorusSeamPinSurvivesWrappedRelease: a failure inside the wrapped
// piece of a seam-crossing placement survives the placement's release,
// and seam-crossing fit queries refuse the pinned band afterwards.
func TestTorusSeamPinSurvivesWrappedRelease(t *testing.T) {
	m := NewTorus(8, 8)
	s := SubAt(6, 0, 4, 2) // wraps the x seam: pieces at x=6..7 and x=0..1
	pieces := m.SplitWrap(nil, s)
	if len(pieces) != 2 {
		t.Fatalf("SplitWrap(%v) = %d pieces, want 2", s, len(pieces))
	}
	for _, p := range pieces {
		if err := m.AllocateSub(p); err != nil {
			t.Fatal(err)
		}
	}
	dead := Coord{0, 1, 0} // inside the wrapped piece
	if err := m.Fail(dead); err != nil {
		t.Fatal(err)
	}
	for i := len(pieces) - 1; i >= 0; i-- {
		if err := m.ReleaseSub(pieces[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Busy(dead) || !m.Pinned(dead) {
		t.Fatalf("seam pin freed by wrapped release\n%s", m)
	}
	if m.FitsAt(6, 0, 4, 2) {
		t.Fatal("FitsAt crosses the seam over a pinned cell")
	}
	if err := m.Recover(dead); err != nil {
		t.Fatal(err)
	}
	if !m.FitsAt(6, 0, 4, 2) {
		t.Fatal("FitsAt refuses the seam band after recovery")
	}
}
