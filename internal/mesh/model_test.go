package mesh

// The package's per-cell model: which cells are allocated and which are
// pinned (failed), kept as plain bools beside the mesh. Every test that
// mutates a mesh and checks the index runs its mutations through the
// model's apply helpers. Each helper predicts the operation's verdict
// (success or error) from the model's own state, runs the operation on
// the mesh, demands the same verdict, updates the model only on
// success, and then verifies the mesh against the model cell by cell
// and count by count before checkTables holds the words to their
// invariants. A mutation that flips the wrong cells, or that succeeds
// or fails when it should not, is caught at the step that made it.

import (
	"math/rand"
	"slices"
	"testing"
)

// cellModel holds alloc and pin per cell, indexed like the mesh
// (Index). A cell is busy when it is allocated or pinned, and the
// mesh's overlay mark must equal alloc ∧ pin.
type cellModel struct {
	m     *Mesh
	alloc []bool
	pin   []bool
}

// newCellModel models m, which must be fresh: all free, nothing pinned.
func newCellModel(m *Mesh) *cellModel {
	return &cellModel{m: m, alloc: make([]bool, m.Size()), pin: make([]bool, m.Size())}
}

func (cm *cellModel) busy(i int) bool      { return cm.alloc[i] || cm.pin[i] }
func (cm *cellModel) isFree(i int) bool    { return !cm.busy(i) }
func (cm *cellModel) allocated(i int) bool { return cm.alloc[i] }

// verify compares the mesh against the model cell by cell and count by
// count, then runs checkTables.
func (cm *cellModel) verify(t *testing.T) {
	t.Helper()
	m := cm.m
	nAlloc, nPin, nBusy := 0, 0, 0
	for i := range cm.alloc {
		c := m.CoordOf(i)
		if m.Busy(c) != cm.busy(i) {
			t.Fatalf("busy(%v) = %v, model says %v\n%s", c, m.Busy(c), cm.busy(i), m)
		}
		if m.Pinned(c) != cm.pin[i] {
			t.Fatalf("Pinned(%v) = %v, model says %v\n%s", c, m.Pinned(c), cm.pin[i], m)
		}
		if ov := markSet(m, m.overlay, c); ov != (cm.alloc[i] && cm.pin[i]) {
			t.Fatalf("overlay(%v) = %v, model says %v\n%s", c, ov, !ov, m)
		}
		if cm.alloc[i] {
			nAlloc++
		}
		if cm.pin[i] {
			nPin++
		}
		if cm.busy(i) {
			nBusy++
		}
	}
	if m.AllocatedCount() != nAlloc || m.PinnedCount() != nPin || m.FreeCount() != m.Size()-nBusy {
		t.Fatalf("counts alloc=%d pins=%d free=%d, model says %d/%d/%d",
			m.AllocatedCount(), m.PinnedCount(), m.FreeCount(), nAlloc, nPin, m.Size()-nBusy)
	}
	checkTables(t, m)
}

// expect fails the test unless the mesh's verdict on op(arg) is the
// model's.
func (cm *cellModel) expect(t *testing.T, op string, arg any, err error, want bool) {
	t.Helper()
	if (err == nil) != want {
		t.Fatalf("%s(%v) err=%v, model wants success=%v\n%s", op, arg, err, want, cm.m)
	}
}

// onMesh reports whether the box is valid and lies on the mesh.
func (cm *cellModel) onMesh(s Submesh) bool {
	return s.Valid() && cm.m.InBounds(s.Base()) && cm.m.InBounds(s.End())
}

// all reports whether every cell of the on-mesh box satisfies pred.
func (cm *cellModel) all(s Submesh, pred func(i int) bool) bool {
	for _, c := range s.Nodes() {
		if !pred(cm.m.Index(c)) {
			return false
		}
	}
	return true
}

// set writes v to every cell of the on-mesh box in cells.
func (cm *cellModel) set(cells []bool, s Submesh, v bool) {
	for _, c := range s.Nodes() {
		cells[cm.m.Index(c)] = v
	}
}

// listed reports whether every node is on the mesh, listed once, and
// satisfies pred.
func (cm *cellModel) listed(nodes []Coord, pred func(i int) bool) bool {
	seen := make(map[int]bool, len(nodes))
	for _, c := range nodes {
		if !cm.m.InBounds(c) {
			return false
		}
		i := cm.m.Index(c)
		if seen[i] || !pred(i) {
			return false
		}
		seen[i] = true
	}
	return true
}

// allocSub runs AllocateSub(s): it succeeds exactly when s is valid,
// lies on the mesh, and every cell is free.
func (cm *cellModel) allocSub(t *testing.T, s Submesh) error {
	t.Helper()
	want := cm.onMesh(s) && cm.all(s, cm.isFree)
	err := cm.m.AllocateSub(s)
	cm.expect(t, "AllocateSub", s, err, want)
	if err == nil {
		cm.set(cm.alloc, s, true)
	}
	cm.verify(t)
	return err
}

// releaseSub runs ReleaseSub(s): an invalid (empty) s releases nothing
// and succeeds; otherwise it succeeds exactly when s lies on the mesh
// and every cell is allocated. A pin under the allocation stays.
func (cm *cellModel) releaseSub(t *testing.T, s Submesh) error {
	t.Helper()
	want := !s.Valid() || cm.onMesh(s) && cm.all(s, cm.allocated)
	err := cm.m.ReleaseSub(s)
	cm.expect(t, "ReleaseSub", s, err, want)
	if err == nil && s.Valid() {
		cm.set(cm.alloc, s, false)
	}
	cm.verify(t)
	return err
}

// allocate runs the scattered Allocate(nodes): it succeeds exactly when
// every node is on the mesh, free, and listed once.
func (cm *cellModel) allocate(t *testing.T, nodes []Coord) error {
	t.Helper()
	want := cm.listed(nodes, cm.isFree)
	err := cm.m.Allocate(nodes)
	cm.expect(t, "Allocate", nodes, err, want)
	if err == nil {
		for _, c := range nodes {
			cm.alloc[cm.m.Index(c)] = true
		}
	}
	cm.verify(t)
	return err
}

// release runs the scattered Release(nodes): it succeeds exactly when
// every node is on the mesh, allocated, and listed once. A pin under
// the allocation stays.
func (cm *cellModel) release(t *testing.T, nodes []Coord) error {
	t.Helper()
	want := cm.listed(nodes, cm.allocated)
	err := cm.m.Release(nodes)
	cm.expect(t, "Release", nodes, err, want)
	if err == nil {
		for _, c := range nodes {
			cm.alloc[cm.m.Index(c)] = false
		}
	}
	cm.verify(t)
	return err
}

// failCell runs Fail(c): it succeeds exactly when c is on the mesh and
// not pinned yet.
func (cm *cellModel) failCell(t *testing.T, c Coord) error {
	t.Helper()
	want := cm.m.InBounds(c) && !cm.pin[cm.m.Index(c)]
	err := cm.m.Fail(c)
	cm.expect(t, "Fail", c, err, want)
	if err == nil {
		cm.pin[cm.m.Index(c)] = true
	}
	cm.verify(t)
	return err
}

// recoverCell runs Recover(c): it succeeds exactly when c is on the
// mesh and pinned. An allocation under the pin keeps the cell busy.
func (cm *cellModel) recoverCell(t *testing.T, c Coord) error {
	t.Helper()
	want := cm.m.InBounds(c) && cm.pin[cm.m.Index(c)]
	err := cm.m.Recover(c)
	cm.expect(t, "Recover", c, err, want)
	if err == nil {
		cm.pin[cm.m.Index(c)] = false
	}
	cm.verify(t)
	return err
}

// reset runs Reset: every cell free, every pin recovered.
func (cm *cellModel) reset(t *testing.T) {
	t.Helper()
	cm.m.Reset()
	clear(cm.alloc)
	clear(cm.pin)
	cm.verify(t)
}

// clone returns a model of a new mesh of the same geometry and
// topology holding the same cells, with state of its own. It rebuilds
// them through the new model's apply helpers: the bare pins first,
// then the allocated cells, then the pins over them.
func (cm *cellModel) clone(t *testing.T) *cellModel {
	t.Helper()
	m := cm.m
	c := New3D(m.w, m.l, m.h)
	c.torus = m.torus
	n := newCellModel(c)
	var alloc []Coord
	for i := range cm.alloc {
		switch {
		case cm.alloc[i]:
			alloc = append(alloc, m.CoordOf(i))
		case cm.pin[i]:
			n.failCell(t, m.CoordOf(i))
		}
	}
	n.allocate(t, alloc)
	for i := range cm.pin {
		if cm.alloc[i] && cm.pin[i] {
			n.failCell(t, m.CoordOf(i))
		}
	}
	if !slices.Equal(n.alloc, cm.alloc) || !slices.Equal(n.pin, cm.pin) {
		t.Fatal("clone holds other cells than its source")
	}
	return n
}

// placeWrapped places a possibly seam-crossing rectangle on a torus the
// way the allocators do. SubFree must agree with the model, and a free
// rectangle commits as its SplitWrap pieces; a busy one instead tries
// its first busy piece, which must fail. It returns the committed
// pieces.
func (cm *cellModel) placeWrapped(t *testing.T, s Submesh) []Submesh {
	t.Helper()
	pieces := cm.m.SplitWrap(nil, s)
	free := true
	for _, p := range pieces {
		free = free && cm.all(p, cm.isFree)
	}
	if got := cm.m.SubFree(s); got != free {
		t.Fatalf("SubFree(%v) = %v, model says %v\n%s", s, got, free, cm.m)
	}
	if !free {
		for _, p := range pieces {
			if !cm.all(p, cm.isFree) {
				cm.allocSub(t, p)
				return nil
			}
		}
	}
	for _, p := range pieces {
		cm.allocSub(t, p)
	}
	return pieces
}

// cells lists the coordinates of the cells satisfying pred.
func (cm *cellModel) cells(pred func(i int) bool) []Coord {
	var out []Coord
	for i := range cm.alloc {
		if pred(i) {
			out = append(out, cm.m.CoordOf(i))
		}
	}
	return out
}

// randBox draws a box based on the mesh: on a torus it may run past
// either seam, up to one ring long; otherwise it stays on the mesh.
func randBox(m *Mesh, rng *rand.Rand) Submesh {
	x, y, z := rng.Intn(m.w), rng.Intn(m.l), rng.Intn(m.h)
	if m.torus {
		return SubAt(x, y, 1+rng.Intn(m.w), 1+rng.Intn(m.l))
	}
	return SubAt3D(x, y, z, 1+rng.Intn(m.w-x), 1+rng.Intn(m.l-y), 1+rng.Intn(m.h-z))
}

// runBoxOps drives random box allocate/release sequences through the
// model, checking the queries every 25 steps. A drawn box may overlap
// live ones, and on a torus it may cross a seam and is placed as its
// SplitWrap pieces. Doomed requests (a box off the mesh, a repeat of a
// live box), resets and clones ride along.
func runBoxOps(t *testing.T, m *Mesh, seed int64, steps int, check func(*testing.T, *Mesh, *rand.Rand)) {
	t.Helper()
	cm := newCellModel(m)
	rng := rand.New(rand.NewSource(seed))
	var live []Submesh
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			s := randBox(m, rng)
			if m.torus {
				live = append(live, cm.placeWrapped(t, s)...)
			} else if cm.allocSub(t, s) == nil {
				live = append(live, s)
			}
		case op < 7:
			if len(live) == 0 {
				break
			}
			k := rng.Intn(len(live))
			cm.releaseSub(t, live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		case op < 8:
			cm.allocSub(t, SubAt3D(m.w-2, m.l-2, 0, 4, 4, m.h))
			if len(live) > 0 {
				cm.allocSub(t, live[rng.Intn(len(live))])
			}
		case op < 9:
			if rng.Intn(20) == 0 {
				cm.reset(t)
				live = live[:0]
			}
		default: // resetting a clone leaves its source alone
			cm.clone(t).reset(t)
			cm.verify(t)
		}
		if step%25 == 0 {
			check(t, m, rng)
		}
	}
}

// runCellOps drives random scattered Allocate/Release sequences through
// the model: a random subset of the free cells or of the allocated
// ones, now and then with its first node repeated at the end, and
// doomed requests — a busy cell to allocate, a free cell to release, a
// node off the mesh. The queries are checked every 25 steps.
func runCellOps(t *testing.T, m *Mesh, seed int64, steps int, check func(*testing.T, *Mesh, *rand.Rand)) {
	t.Helper()
	cm := newCellModel(m)
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < steps; step++ {
		alloc := rng.Intn(2) == 0
		pick := cm.allocated
		if alloc {
			pick = cm.isFree
		}
		if nodes := cm.cells(pick); len(nodes) > 0 {
			rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			nodes = nodes[:1+rng.Intn(len(nodes))]
			if rng.Intn(4) == 0 {
				// The repeat dooms the request after its other flips, so
				// the rollback must restore every one of them.
				nodes = append(nodes, nodes[0])
			}
			if alloc {
				cm.allocate(t, nodes)
			} else {
				cm.release(t, nodes)
			}
		}
		if busy := cm.cells(cm.busy); len(busy) > 0 {
			cm.allocate(t, []Coord{busy[rng.Intn(len(busy))]})
		}
		if free := cm.cells(cm.isFree); len(free) > 0 {
			cm.release(t, []Coord{free[rng.Intn(len(free))]})
		}
		cm.allocate(t, []Coord{{X: m.w}})
		if step%25 == 0 {
			check(t, m, rng)
		}
	}
}
