package mesh

// Faulty-mesh oracle: every Fail/Recover mutation is checked against
// its contract (checkFail/checkRecover, also wired into FuzzIndexOps),
// and randomized churn interleaving failures, recoveries, allocations
// and releases is verified against a naive per-cell model that
// distinguishes pinned from allocated cells — busy must always read as
// allocated ∪ pinned, and the release paths must never free a pin.

import (
	"math/rand"
	"strings"
	"testing"
)

// checkFail exercises Fail and verifies its contract against the
// pre-state: out-of-bounds and repeated failures are side-effect-free
// errors; a successful failure pins the cell busy, grows the pin count
// by one, shrinks the free count only when the cell was free, and
// never changes the allocated count.
func checkFail(t *testing.T, m *Mesh, c Coord) {
	t.Helper()
	inb := m.InBounds(c)
	wasPinned := m.Pinned(c)
	wasBusy := inb && m.Busy(c)
	free, pins, allocd := m.FreeCount(), m.PinnedCount(), m.AllocatedCount()
	err := m.Fail(c)
	if !inb || wasPinned {
		if err == nil {
			t.Fatalf("Fail(%v) succeeded (inBounds=%v, pinned=%v)", c, inb, wasPinned)
		}
		if m.FreeCount() != free || m.PinnedCount() != pins || m.AllocatedCount() != allocd {
			t.Fatalf("failed Fail(%v) changed counts\n%s", c, m)
		}
		return
	}
	if err != nil {
		t.Fatalf("Fail(%v): %v", c, err)
	}
	if !m.Pinned(c) || !m.Busy(c) {
		t.Fatalf("Fail(%v): cell pinned=%v busy=%v, want both\n%s", c, m.Pinned(c), m.Busy(c), m)
	}
	wantFree := free
	if !wasBusy {
		wantFree--
	}
	if m.FreeCount() != wantFree || m.PinnedCount() != pins+1 || m.AllocatedCount() != allocd {
		t.Fatalf("Fail(%v): counts free=%d pins=%d alloc=%d, want %d/%d/%d\n%s",
			c, m.FreeCount(), m.PinnedCount(), m.AllocatedCount(), wantFree, pins+1, allocd, m)
	}
}

// checkRecover exercises Recover and verifies its contract against the
// pre-state: recovering a non-failed cell is a side-effect-free error;
// a successful recovery unpins, frees the cell exactly when no live
// allocation holds it, and never changes the allocated count.
func checkRecover(t *testing.T, m *Mesh, c Coord) {
	t.Helper()
	wasPinned := m.Pinned(c)
	wasOverlay := wasPinned && m.overlay[m.Index(c)]
	free, pins, allocd := m.FreeCount(), m.PinnedCount(), m.AllocatedCount()
	err := m.Recover(c)
	if !wasPinned {
		if err == nil {
			t.Fatalf("Recover(%v) succeeded on a non-failed cell", c)
		}
		if m.FreeCount() != free || m.PinnedCount() != pins || m.AllocatedCount() != allocd {
			t.Fatalf("failed Recover(%v) changed counts\n%s", c, m)
		}
		return
	}
	if err != nil {
		t.Fatalf("Recover(%v): %v", c, err)
	}
	if m.Pinned(c) {
		t.Fatalf("Recover(%v): still pinned\n%s", c, m)
	}
	if m.Busy(c) != wasOverlay {
		t.Fatalf("Recover(%v): busy=%v, want %v (overlay)\n%s", c, m.Busy(c), wasOverlay, m)
	}
	wantFree := free
	if !wasOverlay {
		wantFree++
	}
	if m.FreeCount() != wantFree || m.PinnedCount() != pins-1 || m.AllocatedCount() != allocd {
		t.Fatalf("Recover(%v): counts free=%d pins=%d alloc=%d, want %d/%d/%d\n%s",
			c, m.FreeCount(), m.PinnedCount(), m.AllocatedCount(), wantFree, pins-1, allocd, m)
	}
}

// faultModel is the naive per-cell oracle: alloc and pin per cell, with
// the mesh's busy map required to equal alloc ∪ pin at all times. The
// overlay bit the mesh keeps is the derived alloc ∧ pin.
type faultModel struct {
	m     *Mesh
	alloc []bool
	pin   []bool
}

func newFaultModel(m *Mesh) *faultModel {
	return &faultModel{m: m, alloc: make([]bool, m.Size()), pin: make([]bool, m.Size())}
}

func (fm *faultModel) busy(i int) bool { return fm.alloc[i] || fm.pin[i] }

// verify compares the mesh against the model cell by cell and count by
// count, then runs the full table oracle.
func (fm *faultModel) verify(t *testing.T) {
	t.Helper()
	m := fm.m
	nAlloc, nPin, nBusy := 0, 0, 0
	for i := range fm.alloc {
		c := m.CoordOf(i)
		if m.Busy(c) != fm.busy(i) {
			t.Fatalf("busy(%v) = %v, model says %v\n%s", c, m.Busy(c), fm.busy(i), m)
		}
		if m.Pinned(c) != fm.pin[i] {
			t.Fatalf("Pinned(%v) = %v, model says %v\n%s", c, m.Pinned(c), fm.pin[i], m)
		}
		if fm.alloc[i] {
			nAlloc++
		}
		if fm.pin[i] {
			nPin++
		}
		if fm.busy(i) {
			nBusy++
		}
	}
	if m.AllocatedCount() != nAlloc || m.PinnedCount() != nPin || m.FreeCount() != m.Size()-nBusy {
		t.Fatalf("counts alloc=%d pins=%d free=%d, model says %d/%d/%d",
			m.AllocatedCount(), m.PinnedCount(), m.FreeCount(), nAlloc, nPin, m.Size()-nBusy)
	}
	checkTables(t, m)
}

// boxCells lists the cuboid's cell indexes on the model's mesh.
func (fm *faultModel) boxCells(s Submesh) []int {
	var out []int
	for z := s.Z1; z <= s.Z2; z++ {
		for y := s.Y1; y <= s.Y2; y++ {
			for x := s.X1; x <= s.X2; x++ {
				out = append(out, fm.m.Index(Coord{x, y, z}))
			}
		}
	}
	return out
}

// randCoord draws a coordinate that is occasionally just out of bounds.
func randCoord(m *Mesh, rng *rand.Rand) Coord {
	return Coord{rng.Intn(m.W()+2) - 1, rng.Intn(m.L()+2) - 1, rng.Intn(m.H()+2) - 1}
}

// stepFail applies a model-checked Fail of a random cell.
func (fm *faultModel) stepFail(t *testing.T, rng *rand.Rand) {
	c := randCoord(fm.m, rng)
	checkFail(t, fm.m, c)
	if fm.m.InBounds(c) && !fm.pin[fm.m.Index(c)] {
		fm.pin[fm.m.Index(c)] = true
	}
}

// stepRecover applies a model-checked Recover of a random cell —
// biased towards currently pinned cells so recoveries actually happen.
func (fm *faultModel) stepRecover(t *testing.T, rng *rand.Rand) {
	c := randCoord(fm.m, rng)
	if fm.m.PinnedCount() > 0 && rng.Intn(2) == 0 {
		for tries := 0; tries < 64; tries++ {
			p := Coord{rng.Intn(fm.m.W()), rng.Intn(fm.m.L()), rng.Intn(fm.m.H())}
			if fm.pin[fm.m.Index(p)] {
				c = p
				break
			}
		}
	}
	checkRecover(t, fm.m, c)
	if fm.m.InBounds(c) {
		fm.pin[fm.m.Index(c)] = false
	}
}

// stepAllocSub attempts a random cuboid allocation and demands the
// model's verdict: success exactly when the cuboid is valid, in bounds
// and every cell is neither allocated nor pinned.
func (fm *faultModel) stepAllocSub(t *testing.T, rng *rand.Rand) {
	m := fm.m
	s := Submesh{
		X1: rng.Intn(m.W()+2) - 1, Y1: rng.Intn(m.L()+2) - 1, Z1: rng.Intn(m.H()+2) - 1,
	}
	s.X2 = s.X1 + rng.Intn(4)
	s.Y2 = s.Y1 + rng.Intn(4)
	s.Z2 = s.Z1 + rng.Intn(2)
	want := s.Valid() && m.InBounds(s.Base()) && m.InBounds(s.End())
	if want {
		for _, i := range fm.boxCells(s) {
			if fm.busy(i) {
				want = false
				break
			}
		}
	}
	err := m.AllocateSub(s)
	if (err == nil) != want {
		t.Fatalf("AllocateSub(%v) err=%v, model wants success=%v\n%s", s, err, want, m)
	}
	if err == nil {
		for _, i := range fm.boxCells(s) {
			fm.alloc[i] = true
		}
	}
}

// stepReleaseSub attempts a cuboid release around a random busy cell
// and demands the model's verdict: success exactly when every cell is
// allocated (pinned cells must be overlaid by a live allocation —
// releasing a bare pin is an error, and a successful release keeps
// every pin busy).
func (fm *faultModel) stepReleaseSub(t *testing.T, rng *rand.Rand) {
	m := fm.m
	s := Submesh{
		X1: rng.Intn(m.W()+2) - 1, Y1: rng.Intn(m.L()+2) - 1, Z1: rng.Intn(m.H()+2) - 1,
	}
	s.X2 = s.X1 + rng.Intn(3)
	s.Y2 = s.Y1 + rng.Intn(3)
	s.Z2 = s.Z1 + rng.Intn(2)
	if !s.Valid() {
		if err := m.ReleaseSub(s); err != nil {
			t.Fatalf("ReleaseSub(%v) on invalid cuboid: %v", s, err)
		}
		return
	}
	inb := m.InBounds(s.Base()) && m.InBounds(s.End())
	want := inb
	if inb {
		for _, i := range fm.boxCells(s) {
			if !fm.alloc[i] {
				want = false
				break
			}
		}
	}
	err := m.ReleaseSub(s)
	if (err == nil) != want {
		t.Fatalf("ReleaseSub(%v) err=%v, model wants success=%v\n%s", s, err, want, m)
	}
	if err == nil {
		for _, i := range fm.boxCells(s) {
			fm.alloc[i] = false
		}
	}
}

// stepReleaseCells attempts a per-node Release of a few random cells,
// exercising the pinned-aware Release path with mixed pinned, overlaid
// and plain-allocated cells.
func (fm *faultModel) stepReleaseCells(t *testing.T, rng *rand.Rand) {
	m := fm.m
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
	want := true
	for _, c := range nodes {
		if !fm.alloc[m.Index(c)] {
			want = false
			break
		}
	}
	err := m.Release(nodes)
	if (err == nil) != want {
		t.Fatalf("Release(%v) err=%v, model wants success=%v\n%s", nodes, err, want, m)
	}
	if err == nil {
		for _, c := range nodes {
			fm.alloc[m.Index(c)] = false
		}
	}
}

// runFaultOracle churns one mesh with model-checked fault and
// allocation ops, verifying the model and the full table oracle after
// every step and the query layer periodically.
func runFaultOracle(t *testing.T, m *Mesh, steps int, queryCheck func(*testing.T, *Mesh, *rand.Rand)) {
	t.Helper()
	if testing.Short() {
		steps /= 4
	}
	fm := newFaultModel(m)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0, 1:
			fm.stepFail(t, rng)
		case 2:
			fm.stepRecover(t, rng)
		case 3, 4, 5, 6:
			fm.stepAllocSub(t, rng)
		case 7, 8:
			fm.stepReleaseSub(t, rng)
		default:
			fm.stepReleaseCells(t, rng)
		}
		fm.verify(t)
		if queryCheck != nil && i%40 == 39 {
			queryCheck(t, m, rng)
		}
	}
}

func TestFaultOraclePlanar(t *testing.T) {
	runFaultOracle(t, New(16, 22), 400, checkQueries)
}

func TestFaultOracle3D(t *testing.T) {
	runFaultOracle(t, New3D(8, 9, 4), 400, checkQueries3D)
}

// TestFaultOracleTorus churns a torus with seam-crossing allocations
// (SplitWrap pieces) interleaved with failures and recoveries: SubFree
// across the seams must agree with the model, pins inside wrapped
// pieces survive the group's release, and the table oracle holds
// throughout.
func TestFaultOracleTorus(t *testing.T) {
	m := NewTorus(16, 22)
	fm := newFaultModel(m)
	rng := rand.New(rand.NewSource(43))
	var groups [][]Submesh
	steps := 400
	if testing.Short() {
		steps /= 4
	}
	for i := 0; i < steps; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			fm.stepFail(t, rng)
		case 2:
			fm.stepRecover(t, rng)
		case 3, 4, 5:
			// A wrapped placement: the logical rectangle may cross either
			// seam; its planar pieces commit only when the model says the
			// whole wrapped region is free.
			s := SubAt(rng.Intn(m.W()), rng.Intn(m.L()), 1+rng.Intn(6), 1+rng.Intn(6))
			pieces := m.SplitWrap(nil, s)
			want := true
			for _, p := range pieces {
				for _, idx := range fm.boxCells(p) {
					if fm.busy(idx) {
						want = false
					}
				}
			}
			if got := m.SubFree(s); got != want {
				t.Fatalf("SubFree(%v) = %v, model says %v\n%s", s, got, want, m)
			}
			if !want {
				// Exercise the error path on a piece the model rejects.
				for _, p := range pieces {
					busy := false
					for _, idx := range fm.boxCells(p) {
						if fm.busy(idx) {
							busy = true
						}
					}
					if busy {
						if err := m.AllocateSub(p); err == nil {
							t.Fatalf("AllocateSub(%v) succeeded over a busy model cell", p)
						}
						break
					}
				}
				break
			}
			for _, p := range pieces {
				if err := m.AllocateSub(p); err != nil {
					t.Fatalf("AllocateSub(%v): %v", p, err)
				}
				for _, idx := range fm.boxCells(p) {
					fm.alloc[idx] = true
				}
			}
			groups = append(groups, pieces)
		default:
			if len(groups) == 0 {
				break
			}
			gi := rng.Intn(len(groups))
			g := groups[gi]
			groups[gi] = groups[len(groups)-1]
			groups = groups[:len(groups)-1]
			for pi := len(g) - 1; pi >= 0; pi-- {
				if err := m.ReleaseSub(g[pi]); err != nil {
					t.Fatalf("ReleaseSub(%v): %v", g[pi], err)
				}
				for _, idx := range fm.boxCells(g[pi]) {
					fm.alloc[idx] = false
				}
			}
		}
		fm.verify(t)
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
	m := New3D(5, 4, 2)
	if err := m.AllocateSub(SubAt3D(0, 0, 0, 2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Fail(Coord{1, 1, 0}); err != nil { // overlay
		t.Fatal(err)
	}
	if err := m.Fail(Coord{4, 3, 1}); err != nil { // bare pin
		t.Fatal(err)
	}
	n := m.Clone()
	if n.String() != m.String() {
		t.Fatalf("clone renders differently:\n%s\nvs\n%s", n, m)
	}
	if n.PinnedCount() != 2 || n.AllocatedCount() != m.AllocatedCount() {
		t.Fatalf("clone pins=%d alloc=%d, want 2/%d", n.PinnedCount(), n.AllocatedCount(), m.AllocatedCount())
	}
	// The clone's pins are independent state.
	if err := n.Recover(Coord{4, 3, 1}); err != nil {
		t.Fatal(err)
	}
	if !m.Pinned(Coord{4, 3, 1}) {
		t.Fatal("recovering the clone unpinned the original")
	}
	if got := strings.Count(m.String(), "x"); got != 2 {
		t.Fatalf("String renders %d 'x' cells, want 2:\n%s", got, m)
	}
	m.Reset()
	if m.PinnedCount() != 0 || m.FreeCount() != m.Size() {
		t.Fatalf("Reset kept pins=%d free=%d", m.PinnedCount(), m.FreeCount())
	}
	checkTables(t, m)
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
