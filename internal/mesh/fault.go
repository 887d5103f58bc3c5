package mesh

import (
	"fmt"
	"math/bits"
)

// Pinned cells model failed processors: a failed cell reads as busy to
// every query path — the bitboard words, and so the torus seam band
// and the 3D plane projections built from them — because Fail clears
// its bit exactly as an allocation does. No search or query ever
// consults the pin marks; they only gate the mutation paths, so the
// index invariants hold verbatim on a faulty mesh.
//
// The occupancy state of a faulty mesh is the pair (allocated, pinned)
// per cell, with busy = allocated ∪ pinned maintained as the derived
// view the index runs on. The pin marks (pinned, and overlay for the
// pins over a live allocation) are bitboards in the words' own layout,
// so every fault path is bit operations on the same word indices
// (cellBit), and a release is word operations:
//
//   - Fail on a free cell marks it busy (one bit flip) and pins it.
//   - Fail on an allocated cell pins it in place and records the live
//     allocation underneath as an overlay — the words are untouched.
//   - Release and ReleaseSub never free a pinned cell: releasing an
//     allocation whose region contains an overlay clears the overlay
//     and keeps the cell busy, so a failed processor can never leak
//     back into the free pool through its victim's teardown. ReleaseSub
//     does it per touched word: free |= mask &^ pinned, overlay &^=
//     pinned (releaseSubPinnedAware).
//   - Recover unpins: an overlaid cell stays busy (its allocation still
//     holds it); a bare pin frees the cell (one bit flip).
//
// Fail and Recover keep AllocatedCount invariant by construction.

// ensureFault allocates the pin marks on first use, so fault-free
// meshes never carry them.
func (m *Mesh) ensureFault() {
	if m.pinned == nil {
		m.pinned = make([]uint64, len(m.freeW))
		m.overlay = make([]uint64, len(m.freeW))
	}
}

// Fail pins processor c as failed. A free cell becomes busy; a cell
// inside a live allocation is pinned in place (the allocation keeps
// reading as busy, and its eventual release will skip the cell — see
// the package comment above). Failing an out-of-bounds or already
// failed processor is an error without side effects.
func (m *Mesh) Fail(c Coord) error {
	if !m.InBounds(c) {
		return fmt.Errorf("mesh: fail out of bounds %v", c)
	}
	m.ensureFault()
	i, b := m.cellBit(c)
	if m.pinned[i]&b != 0 {
		return fmt.Errorf("mesh: fail already-failed %v", c)
	}
	m.pinned[i] |= b
	m.pinnedCount++
	if m.freeW[i]&b == 0 {
		// A live allocation holds the cell: pin over it, words untouched.
		m.overlay[i] |= b
		m.overlayCount++
		return nil
	}
	m.freeCount--
	m.freeW[i] &^= b
	return nil
}

// Recover unpins processor c. A cell whose allocation is still live
// stays busy under that allocation; a bare pin is freed. Recovering a
// processor that is not failed is an error without side effects.
func (m *Mesh) Recover(c Coord) error {
	if !m.InBounds(c) {
		return fmt.Errorf("mesh: recover out of bounds %v", c)
	}
	if !m.Pinned(c) {
		return fmt.Errorf("mesh: recover not-failed %v", c)
	}
	i, b := m.cellBit(c)
	m.pinned[i] &^= b
	m.pinnedCount--
	if m.overlay[i]&b != 0 {
		m.overlay[i] &^= b
		m.overlayCount--
		return nil
	}
	m.freeCount++
	m.freeW[i] |= b
	return nil
}

// Pinned reports whether processor c is failed. Out-of-bounds
// coordinates are not pinned.
func (m *Mesh) Pinned(c Coord) bool {
	if m.pinned == nil || !m.InBounds(c) {
		return false
	}
	i, b := m.cellBit(c)
	return m.pinned[i]&b != 0
}

// PinnedCount returns the number of failed processors.
func (m *Mesh) PinnedCount() int { return m.pinnedCount }

// AllocatedCount returns the number of processors held by live
// allocations: the busy count minus the pins, plus the pinned cells
// whose allocation is still live. On a fault-free mesh it equals
// BusyCount.
func (m *Mesh) AllocatedCount() int { return m.BusyCount() - m.pinnedCount + m.overlayCount }

// releasePinnedAware is Release on a mesh with failed processors: a
// pinned cell with a live allocation underneath has its overlay cleared
// and stays busy (failed processors never return to the free pool
// through a release); a bare pin in the request is an error, as is any
// cell that is neither allocated nor overlaid.
func (m *Mesh) releasePinnedAware(nodes []Coord) error {
	for _, c := range nodes {
		if !m.InBounds(c) {
			return fmt.Errorf("mesh: release out of bounds %v", c)
		}
		i, b := m.cellBit(c)
		if m.freeW[i]&b != 0 {
			return fmt.Errorf("mesh: release already-free %v", c)
		}
		if m.pinned[i]&^m.overlay[i]&b != 0 {
			return fmt.Errorf("mesh: release pinned %v", c)
		}
	}
	// Apply, using the bit flips themselves as duplicate detectors,
	// mirroring the pristine path; a duplicate rolls every prior flip
	// back so errors stay side-effect free.
	freed := 0
	for k, c := range nodes {
		i, b := m.cellBit(c)
		dup := false
		switch {
		case m.pinned[i]&b != 0:
			if m.overlay[i]&b != 0 {
				m.overlay[i] &^= b
				m.overlayCount--
			} else {
				dup = true
			}
		case m.freeW[i]&b == 0:
			m.freeW[i] |= b
			freed++
		default:
			dup = true
		}
		if dup {
			for _, p := range nodes[:k] {
				j, pb := m.cellBit(p)
				if m.pinned[j]&pb != 0 {
					m.overlay[j] |= pb
					m.overlayCount++
				} else {
					m.freeW[j] &^= pb
				}
			}
			return fmt.Errorf("mesh: duplicate coordinate %v in request", c)
		}
	}
	m.freeCount += freed
	return nil
}

// releaseSubPinnedAware is ReleaseSub on a mesh with failed processors
// (bounds already checked), columns sp, in two word passes over the
// box's plane-rows. The check reads each touched word under its mask:
// the bare pins (pinned, not overlaid) and the free cells are the cells
// a release may not meet, and the lowest set bit of the first nonzero
// such word — rows in (z, y) order, words left to right — is the
// scan-order first offending cell the error names. The apply pass
// frees the unpinned cells and clears the overlays of the pinned ones,
// which stay busy.
func (m *Mesh) releaseSubPinnedAware(s Submesh, sp span) error {
	f, pinned, overlay, wpr := m.freeW, m.pinned, m.overlay, m.wpr
	bad := func(i int, mk uint64) uint64 { return pinned[i]&mk&^overlay[i] | f[i]&mk }
	for z := s.Z1; z <= s.Z2; z++ {
		for o, end := m.rowIdx(s.Y1, z)*wpr, m.rowIdx(s.Y2, z)*wpr; o <= end; o += wpr {
			i, mk := o+sp.w0, sp.m0
			for i < o+sp.w1 && bad(i, mk) == 0 {
				i, mk = i+1, ^uint64(0)
			}
			if i == o+sp.w1 {
				mk &= sp.m1
			}
			if v := bad(i, mk); v != 0 {
				c := Coord{(i-o)<<6 + bits.TrailingZeros64(v), o/wpr - z*m.l, z}
				if m.Pinned(c) {
					return fmt.Errorf("mesh: release pinned %v", c)
				}
				return fmt.Errorf("mesh: release already-free %v", c)
			}
		}
	}
	pins := 0
	apply := func(i int, mk uint64) {
		pin := pinned[i] & mk
		f[i] |= mk &^ pin
		overlay[i] &^= pin
		pins += bits.OnesCount64(pin)
	}
	for z := s.Z1; z <= s.Z2; z++ {
		for o, end := m.rowIdx(s.Y1, z)*wpr, m.rowIdx(s.Y2, z)*wpr; o <= end; o += wpr {
			mk := sp.m0
			for i := o + sp.w0; i < o+sp.w1; i++ {
				apply(i, mk)
				mk = ^uint64(0)
			}
			apply(o+sp.w1, mk&sp.m1)
		}
	}
	m.overlayCount -= pins
	m.freeCount += s.Area() - pins
	return nil
}
