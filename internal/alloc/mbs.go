package alloc

import (
	"fmt"

	"repro/internal/mesh"
)

// MBS implements the Multiple Buddy Strategy (Lo et al., TPDS 1997).
// On initialization the mesh is carved into non-overlapping square
// blocks with power-of-two sides. A request for p processors is
// factorised into base 4, p = Σ d_i·(2^i × 2^i) with 0 ≤ d_i ≤ 3, and
// served with d_i blocks of each size; a missing block size is obtained
// by splitting a larger free block into its four buddies, and when no
// larger block exists the outstanding sub-request is itself broken into
// four requests one size down. Released blocks recombine with their
// buddies. Allocation therefore succeeds whenever enough processors are
// free, at the price of contiguity: only requests of size exactly 4^n
// are sought as a single contiguous block, which is why MBS degrades on
// the real trace's non-power-of-two job sizes.
//
// MBS is topology-independent: buddy blocks are axis-aligned
// power-of-two tiles that never cross a torus wrap-around seam, so the
// strategy behaves identically on both fabrics.
type MBS struct {
	m    *mesh.Mesh
	kmax int
	// free[k] lists the free blocks of side 2^k in deterministic
	// (insertion) order.
	free [][]blockBase
	// roots are the initial decomposition blocks; coalescing never
	// crosses a root boundary.
	roots []block

	bufs pieceBufs
	// need and digits are Allocate's per-request scratch (blocks owed
	// per size, the request's base-4 digits), made on first use.
	need   []int
	digits []int
}

type blockBase struct{ x, y int }

type block struct {
	x, y, k int // base and side exponent (side = 2^k)
}

func (b block) side() int { return 1 << b.k }

func (b block) sub() mesh.Submesh {
	return mesh.SubAt(b.x, b.y, b.side(), b.side())
}

// NewMBS builds an MBS allocator, carving the mesh into aligned
// power-of-two square roots (largest first). MBS is inherently
// two-dimensional — buddy quartets do not stack into planes — so it
// refuses meshes with depth > 1 rather than silently allocating from
// plane 0 only (alloc.Supports3D lets callers fail fast instead).
func NewMBS(m *mesh.Mesh) *MBS {
	if m.H() > 1 {
		panic(fmt.Sprintf("alloc: MBS is 2D-only, mesh has %d planes", m.H()))
	}
	a := &MBS{m: m}
	a.carve(0, 0, m.W(), m.L())
	for _, r := range a.roots {
		if r.k > a.kmax {
			a.kmax = r.k
		}
		if r.x%r.side() != 0 || r.y%r.side() != 0 {
			panic(fmt.Sprintf("alloc: mbs root %v misaligned", r))
		}
	}
	a.free = make([][]blockBase, a.kmax+1)
	covered := 0
	for _, r := range a.roots {
		a.free[r.k] = append(a.free[r.k], blockBase{r.x, r.y})
		covered += r.side() * r.side()
	}
	if covered != m.Size() {
		panic("alloc: mbs decomposition does not cover the mesh")
	}
	return a
}

// carve tiles the region at (x, y) of size w x l with the largest
// power-of-two squares that fit, row band by row band.
func (a *MBS) carve(x, y, w, l int) {
	if w <= 0 || l <= 0 {
		return
	}
	k := 0
	for (2<<k) <= w && (2<<k) <= l {
		k++
	}
	side := 1 << k
	nx := w / side
	for i := 0; i < nx; i++ {
		a.roots = append(a.roots, block{x + i*side, y, k})
	}
	// Remainder to the right of the band, then the region below it.
	a.carve(x+nx*side, y, w-nx*side, side)
	a.carve(x, y+side, w, l-side)
}

// Name implements Allocator.
func (a *MBS) Name() string { return "MBS" }

// Mesh implements Allocator.
func (a *MBS) Mesh() *mesh.Mesh { return a.m }

// FreeBlockCount returns the number of free blocks of side 2^k, for
// tests and introspection.
func (a *MBS) FreeBlockCount(k int) int {
	if k < 0 || k > a.kmax {
		return 0
	}
	return len(a.free[k])
}

// Factorize returns the base-4 digits of p, least significant first:
// p = Σ digits[i] · 4^i with 0 ≤ digits[i] ≤ 3 (the paper's request
// factorization).
func Factorize(p int) []int { return appendDigits(nil, p) }

// appendDigits appends the base-4 digits of p to dst, least
// significant first; nothing for p <= 0.
func appendDigits(dst []int, p int) []int {
	for p > 0 {
		dst = append(dst, p%4)
		p /= 4
	}
	return dst
}

// Allocate implements Allocator. The admission check reads the mesh's
// free count directly; the buddy free lists carry only the split
// structure, not a second occupancy count that could drift.
func (a *MBS) Allocate(req Request) (Allocation, bool) {
	validate(a.m, req)
	p := req.Size()
	if p > a.m.FreeCount() {
		return Allocation{}, false
	}
	if a.need == nil {
		a.need = make([]int, a.kmax+2)
	}
	need := a.need
	clear(need)
	a.digits = appendDigits(a.digits[:0], p)
	for i, d := range a.digits {
		if i > a.kmax {
			// Request digit above the largest root size: e.g. a 352-
			// processor request has a 4^4=256 digit but the largest
			// root may be smaller on other meshes; push it down.
			need[a.kmax] += d << (2 * (i - a.kmax))
			continue
		}
		need[i] += d
	}
	pieces := a.bufs.get()
	for i := a.kmax; i >= 0; i-- {
		for need[i] > 0 {
			if b, ok := a.take(i); ok {
				pieces = append(pieces, b.sub())
				need[i]--
				continue
			}
			if a.split(i) {
				continue // a block of size i now exists
			}
			// No free block of size >= i: break this sub-request into
			// four one size down (paper: "the requested block is
			// broken into 4 requests for smaller blocks").
			if i == 0 {
				panic("alloc: mbs failed with sufficient free processors")
			}
			need[i]--
			need[i-1] += 4
		}
	}
	return commit(a.m, pieces), true
}

// take pops the oldest usable free block of size k. The free lists
// track allocation structure only — failed processors (mesh.Fail) pin
// cells underneath without touching them — so usability is read off
// the mesh: a free-listed block holds no allocated cells, hence any
// busy cell inside it is a pin and the block must be skipped (it
// returns to service when the cell recovers, still on the list).
func (a *MBS) take(k int) (block, bool) {
	if a.m.PinnedCount() == 0 {
		// Fault-free fast path: every listed block is fully free.
		if len(a.free[k]) == 0 {
			return block{}, false
		}
		b := a.free[k][0]
		a.free[k] = a.free[k][:copy(a.free[k], a.free[k][1:])]
		return block{b.x, b.y, k}, true
	}
	for i, c := range a.free[k] {
		b := block{c.x, c.y, k}
		if !a.m.SubFree(b.sub()) {
			continue // pinned cell inside: unusable until recovery
		}
		a.free[k] = append(a.free[k][:i], a.free[k][i+1:]...)
		return b, true
	}
	return block{}, false
}

// split finds the smallest free block larger than k and splits it down
// until a size-k block exists. It reports whether it succeeded. Under
// failures a block is splittable as long as any cell in it is free:
// splitting a partially pinned block isolates the pins into smaller
// blocks and recovers the live quarters (take then skips the pinned
// fragments, and recovery re-merges nothing — the structure stays
// consistent because coalescing only inspects the free lists).
func (a *MBS) split(k int) bool {
	pinned := a.m.PinnedCount() > 0
	j := -1
	for i := k + 1; i <= a.kmax; i++ {
		if a.splittableAt(i, pinned) >= 0 {
			j = i
			break
		}
	}
	if j < 0 {
		return false
	}
	for ; j > k; j-- {
		i := a.splittableAt(j, pinned)
		b := block{a.free[j][i].x, a.free[j][i].y, j}
		a.free[j] = append(a.free[j][:i], a.free[j][i+1:]...)
		s := 1 << (j - 1)
		for _, c := range [4]blockBase{
			{b.x, b.y}, {b.x + s, b.y}, {b.x, b.y + s}, {b.x + s, b.y + s},
		} {
			a.free[j-1] = append(a.free[j-1], c)
		}
	}
	return true
}

// splittableAt returns the position of the oldest block of size j
// worth splitting (any free cell inside), or -1.
func (a *MBS) splittableAt(j int, pinned bool) int {
	if !pinned {
		if len(a.free[j]) == 0 {
			return -1
		}
		return 0
	}
	for i, c := range a.free[j] {
		b := block{c.x, c.y, j}
		if a.m.FreeInRect(b.sub()) > 0 {
			return i
		}
	}
	return -1
}

// Release implements Allocator: free each block and recombine buddies.
func (a *MBS) Release(al Allocation) {
	for _, piece := range al.Pieces {
		side := piece.W()
		if piece.L() != side || side&(side-1) != 0 {
			panic(fmt.Sprintf("alloc: mbs release of non-square piece %v", piece))
		}
		k := 0
		for 1<<k < side {
			k++
		}
		a.insertAndCoalesce(block{piece.X1, piece.Y1, k})
	}
	a.bufs.release(a.m, al)
}

// insertAndCoalesce adds a free block, then repeatedly merges complete
// buddy quartets into their parent while the parent stays inside one
// root block.
func (a *MBS) insertAndCoalesce(b block) {
	for b.k < a.kmax {
		s2 := 2 * b.side()
		parent := block{b.x - b.x%s2, b.y - b.y%s2, b.k + 1}
		if !a.insideRoot(parent) {
			break
		}
		s := b.side()
		buddies := [4]blockBase{
			{parent.x, parent.y}, {parent.x + s, parent.y},
			{parent.x, parent.y + s}, {parent.x + s, parent.y + s},
		}
		all := true
		for _, c := range buddies {
			if c == (blockBase{b.x, b.y}) {
				continue
			}
			if !a.isFree(b.k, c) {
				all = false
				break
			}
		}
		if !all {
			break
		}
		for _, c := range buddies {
			if c != (blockBase{b.x, b.y}) {
				a.removeFree(b.k, c)
			}
		}
		b = parent
	}
	a.free[b.k] = append(a.free[b.k], blockBase{b.x, b.y})
}

// insideRoot reports whether the block lies entirely within one initial
// root block.
func (a *MBS) insideRoot(b block) bool {
	end := b.side() - 1
	for _, r := range a.roots {
		if b.x >= r.x && b.y >= r.y &&
			b.x+end <= r.x+r.side()-1 && b.y+end <= r.y+r.side()-1 {
			return true
		}
	}
	return false
}

func (a *MBS) isFree(k int, c blockBase) bool {
	for _, f := range a.free[k] {
		if f == c {
			return true
		}
	}
	return false
}

func (a *MBS) removeFree(k int, c blockBase) {
	for i, f := range a.free[k] {
		if f == c {
			a.free[k] = append(a.free[k][:i], a.free[k][i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("alloc: mbs removeFree of absent block (%d,%d) size %d", c.x, c.y, 1<<k))
}
