package mesh

import "fmt"

// Pinned cells model failed processors: a failed cell reads as busy to
// every query path — the bitboard words, and so the torus seam band
// and the 3D plane projections built from them — because Fail clears
// its bit exactly as an allocation does. No search or query ever
// consults the pin marks; they only gate the mutation paths, so the
// index invariants hold verbatim on a faulty mesh.
//
// The occupancy state of a faulty mesh is the pair (allocated, pinned)
// per cell, with busy = allocated ∪ pinned maintained as the derived
// view the index runs on:
//
//   - Fail on a free cell marks it busy (one bit flip) and pins it.
//   - Fail on an allocated cell pins it in place and records the live
//     allocation underneath as an overlay — the words are untouched.
//   - Release and ReleaseSub never free a pinned cell: releasing an
//     allocation whose region contains an overlay clears the overlay
//     and keeps the cell busy, so a failed processor can never leak
//     back into the free pool through its victim's teardown.
//   - Recover unpins: an overlaid cell stays busy (its allocation still
//     holds it); a bare pin frees the cell (one bit flip).
//
// Fail and Recover keep AllocatedCount invariant by construction, and
// a Fail on a free cell only shrinks the free set, so the histogram
// memo's alloc-monotone facts stay valid; Recover frees a cell and
// bumps the release epoch like any other release.

// ensureFault allocates the pin marks on first use, so fault-free
// meshes never carry them.
func (m *Mesh) ensureFault() {
	if m.pinned == nil {
		m.pinned = make([]bool, m.w*m.l*m.h)
		m.overlay = make([]bool, m.w*m.l*m.h)
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
	idx := m.Index(c)
	if m.pinned[idx] {
		return fmt.Errorf("mesh: fail already-failed %v", c)
	}
	m.pinned[idx] = true
	m.pinnedCount++
	if m.Busy(c) {
		// A live allocation holds the cell: pin over it, words untouched.
		m.overlay[idx] = true
		m.overlayCount++
		return nil
	}
	m.freeCount--
	m.clearFreeBit(m.rowIdx(c.Y, c.Z), c.X)
	return nil
}

// Recover unpins processor c. A cell whose allocation is still live
// stays busy under that allocation; a bare pin is freed. Recovering a
// processor that is not failed is an error without side effects.
func (m *Mesh) Recover(c Coord) error {
	if !m.InBounds(c) {
		return fmt.Errorf("mesh: recover out of bounds %v", c)
	}
	idx := m.Index(c)
	if m.pinned == nil || !m.pinned[idx] {
		return fmt.Errorf("mesh: recover not-failed %v", c)
	}
	m.pinned[idx] = false
	m.pinnedCount--
	if m.overlay[idx] {
		m.overlay[idx] = false
		m.overlayCount--
		return nil
	}
	m.freeCount++
	m.setFreeBit(m.rowIdx(c.Y, c.Z), c.X)
	m.noteRelease()
	return nil
}

// Pinned reports whether processor c is failed. Out-of-bounds
// coordinates are not pinned.
func (m *Mesh) Pinned(c Coord) bool {
	return m.pinned != nil && m.InBounds(c) && m.pinned[m.Index(c)]
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
		idx := m.Index(c)
		if !m.Busy(c) {
			return fmt.Errorf("mesh: release already-free %v", c)
		}
		if m.pinned[idx] && !m.overlay[idx] {
			return fmt.Errorf("mesh: release pinned %v", c)
		}
	}
	// Apply, using the bit flips themselves as duplicate detectors,
	// mirroring the pristine path; a duplicate rolls every prior flip
	// back so errors stay side-effect free.
	freed := 0
	for i, c := range nodes {
		idx := m.Index(c)
		r := m.rowIdx(c.Y, c.Z)
		dup := false
		switch {
		case m.pinned[idx]:
			if m.overlay[idx] {
				m.overlay[idx] = false
				m.overlayCount--
			} else {
				dup = true
			}
		case !m.freeBitAt(r, c.X):
			m.setFreeBit(r, c.X)
			freed++
		default:
			dup = true
		}
		if dup {
			for k := 0; k < i; k++ {
				p := nodes[k]
				if m.pinned[m.Index(p)] {
					m.overlay[m.Index(p)] = true
					m.overlayCount++
				} else {
					m.clearFreeBit(m.rowIdx(p.Y, p.Z), p.X)
				}
			}
			return fmt.Errorf("mesh: duplicate coordinate %v in request", c)
		}
	}
	m.freeCount += freed
	if freed > 0 {
		m.noteRelease()
	}
	return nil
}

// releaseSubPinnedAware is ReleaseSub on a mesh with failed processors
// (bounds already checked): overlays in the cuboid are cleared and
// their cells stay busy, everything else must be allocated and is
// freed. A cuboid that turns out pin-free takes the uniform flipBox
// path after all.
func (m *Mesh) releaseSubPinnedAware(s Submesh) error {
	pinnedIn := 0
	for z := s.Z1; z <= s.Z2; z++ {
		for y := s.Y1; y <= s.Y2; y++ {
			row := (z*m.l + y) * m.w
			r := m.rowIdx(y, z)
			for x := s.X1; x <= s.X2; x++ {
				switch {
				case m.pinned[row+x]:
					if !m.overlay[row+x] {
						return fmt.Errorf("mesh: release pinned %v", Coord{x, y, z})
					}
					pinnedIn++
				case m.freeBitAt(r, x):
					return fmt.Errorf("mesh: release already-free %v", Coord{x, y, z})
				}
			}
		}
	}
	if pinnedIn == 0 {
		m.flipBox(s.X1, s.Y1, s.Z1, s.X2, s.Y2, s.Z2, false)
		m.freeCount += s.Area()
		return nil
	}
	freed := 0
	for z := s.Z1; z <= s.Z2; z++ {
		for y := s.Y1; y <= s.Y2; y++ {
			row := (z*m.l + y) * m.w
			r := m.rowIdx(y, z)
			for x := s.X1; x <= s.X2; x++ {
				if m.pinned[row+x] {
					m.overlay[row+x] = false
					m.overlayCount--
				} else {
					m.setFreeBit(r, x)
					freed++
				}
			}
		}
	}
	m.freeCount += freed
	if freed > 0 {
		m.noteRelease()
	}
	return nil
}
