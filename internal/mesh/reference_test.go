package mesh

// Reference scans: the run-probing window tests and the per-anchor
// constrained-largest scans that the bitboard fit masks and the
// histogram sweeps replaced. No production code calls them; the
// differential tests hold the production searches to them, result for
// result.

// blockedUntil returns 0 when the w x l sub-mesh based at (x,y) is
// free, and otherwise the number of bases to skip: the first blocking
// row's busy processor at x+run blocks every base in [x, x+run]. It is
// the run-probing reference for the bitboard fit mask (CandidatesRow) —
// the churn differentials compare the two base enumerations window by
// window. Runs are derived from the words on demand (runAtBits), a
// path independent of the fit masks it checks.
func (m *Mesh) blockedUntil(x, y, w, l int) int {
	for yy := y; yy < y+l; yy++ {
		if r := m.runAtBits(yy, x); r < w {
			return r + 1
		}
	}
	return 0
}

// largestFreeScan is the pre-histogram LargestFree: a per-anchor
// downward-growth scan with upper-bound pruning, O(W·L·maxL) worst
// case. It is retained verbatim as the reference implementation the
// histogram sweep is differentially tested against (the torus
// counterpart is torusLargestFreeScan). Caps follow LargestFree.
func (m *Mesh) largestFreeScan(maxW, maxL, maxArea int) (Submesh, bool) {
	if m.torus {
		return m.torusLargestFreeScan(maxW, maxL, maxArea)
	}
	if maxW <= 0 || maxL <= 0 || maxArea <= 0 {
		return Submesh{}, false
	}
	if m.h > 1 {
		return m.largestFreeScan3D(maxW, maxL, 1, maxArea)
	}
	if maxW > m.w {
		maxW = m.w
	}
	if maxL > m.l {
		maxL = m.l
	}
	// Best conceivable candidate under the caps, occupancy aside: the
	// search can stop the moment it records a candidate this good,
	// since later candidates can at best tie (and first-found wins).
	// idealArea = max over heights of the capped width times height;
	// idealSkew = the squarest (w,l) factoring of that area.
	idealArea, idealSkew := largestIdeal(maxW, maxL, maxArea)
	var (
		best      Submesh
		bestArea  int
		bestSkew  int // |w - l|, lower is better on equal area
		bestFound bool
	)
	for y := 0; y < m.l; y++ {
		lCap := maxL
		if rest := m.l - y; rest < lCap {
			lCap = rest
		}
		for x := 0; x < m.w; x++ {
			// Anchor upper bound: no rectangle based at (x,y) can beat
			// min(first-row run, maxW) · lCap clipped by the area cap.
			// A strictly smaller bound than the best so far skips the
			// anchor in O(1); equal bounds still scan, so area/skew
			// tie-breaking is identical to the exhaustive search.
			wCap := m.runAtBits(y, x)
			if wCap == 0 {
				continue
			}
			if wCap > maxW {
				wCap = maxW
			}
			if ub := min(wCap*lCap, maxArea); ub < bestArea {
				continue
			}
			// Grow the rectangle downward from (x,y), tracking the
			// minimum free run; the widest rectangle of each height
			// based here is minRun clipped by the caps.
			minRun := wCap
			for l := 1; l <= lCap; l++ {
				run := m.runAtBits(y+l-1, x)
				if run == 0 {
					break
				}
				if run < minRun {
					minRun = run
				}
				// Continuation bound: heights below can only narrow.
				if ub := min(minRun*lCap, maxArea); ub < bestArea {
					break
				}
				w := minRun
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
					if bestArea == idealArea && bestSkew == idealSkew {
						return best, true
					}
				}
			}
		}
	}
	return best, bestFound
}

// torusBlockedUntil returns 0 when the w x l sub-mesh based at (x, y)
// — extents wrapping — is free, and otherwise the number of bases to
// skip: the first blocking row's run ends at a busy processor that
// blocks every base in [x, x+run], exactly as in the planar search.
// Retained as the run-probing reference the torus fit-mask enumeration
// (CandidatesRow) is differentially tested against.
func (m *Mesh) torusBlockedUntil(x, y, w, l int) int {
	for i := 0; i < l; i++ {
		yy := y + i
		if yy >= m.l {
			yy -= m.l
		}
		if r := m.runAt(x, yy); r < w {
			return r + 1
		}
	}
	return 0
}

// torusLargestFreeScan is the pre-histogram torus LargestFree, retained
// as the reference for the differential tests (see largestFreeScan):
// anchors are every grid position, widths come from the wrap-aware
// runs, and heights grow through the y seam. Pruning mirrors the
// planar scan (anchor and continuation upper bounds, ideal
// early-exit); tie-breaking — larger area, then squarer, then
// row-major-first anchor — is identical.
func (m *Mesh) torusLargestFreeScan(maxW, maxL, maxArea int) (Submesh, bool) {
	if maxW <= 0 || maxL <= 0 || maxArea <= 0 {
		return Submesh{}, false
	}
	if maxW > m.w {
		maxW = m.w
	}
	if maxL > m.l {
		maxL = m.l
	}
	idealArea, idealSkew := largestIdeal(maxW, maxL, maxArea)
	var (
		best      Submesh
		bestArea  int
		bestSkew  int
		bestFound bool
	)
	for y := 0; y < m.l; y++ {
		for x := 0; x < m.w; x++ {
			wCap := m.runAt(x, y)
			if wCap == 0 {
				continue
			}
			if wCap > maxW {
				wCap = maxW
			}
			if ub := min(wCap*maxL, maxArea); ub < bestArea {
				continue
			}
			minRun := wCap
			for l := 1; l <= maxL; l++ {
				yy := y + l - 1
				if yy >= m.l {
					yy -= m.l
				}
				run := m.runAt(x, yy)
				if run == 0 {
					break
				}
				if run < minRun {
					minRun = run
				}
				if ub := min(minRun*maxL, maxArea); ub < bestArea {
					break
				}
				w := minRun
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
					if bestArea == idealArea && bestSkew == idealSkew {
						return best, true
					}
				}
			}
		}
	}
	return best, bestFound
}

// blockedUntil3D returns 0 when the w x l x h cuboid based at (x, y, z)
// is free, and otherwise the number of bases to skip: the first
// blocking plane-row's busy processor at x+run blocks every base in
// [x, x+run], exactly as in the planar search. Like blockedUntil it is
// retained as the run-probing reference the bitboard fit-mask scans
// are differentially tested against, with the runs derived from the
// words on demand.
func (m *Mesh) blockedUntil3D(x, y, z, w, l, h int) int {
	for zz := z; zz < z+h; zz++ {
		for yy := 0; yy < l; yy++ {
			if r := m.runAtBits(m.rowIdx(y+yy, zz), x); r < w {
				return r + 1
			}
		}
	}
	return 0
}

// largestFreeScan3D is the naive volumetric LargestFree3D: a per-anchor
// growth scan over depth and height with anchor-maximal capped widths,
// O(W·L·H·maxH·maxL) worst case. It is retained as the reference
// implementation the per-plane sweep is differentially tested against,
// exactly as largestFreeScan is for the planar search. Caps follow
// LargestFree3D; on a depth-1 mesh it defers to largestFreeScan.
func (m *Mesh) largestFreeScan3D(maxW, maxL, maxH, maxVol int) (Submesh, bool) {
	if maxH <= 0 || maxVol <= 0 {
		return Submesh{}, false
	}
	if m.h == 1 {
		return m.largestFreeScan(maxW, maxL, maxVol)
	}
	if maxW <= 0 || maxL <= 0 {
		return Submesh{}, false
	}
	if maxW > m.w {
		maxW = m.w
	}
	if maxL > m.l {
		maxL = m.l
	}
	if maxH > m.h {
		maxH = m.h
	}
	rowMin := make([]int, maxL)
	var (
		best      Submesh
		bestVol   int
		bestSpr   int
		bestFound bool
	)
	for z := 0; z < m.h; z++ {
		hCap := maxH
		if rest := m.h - z; rest < hCap {
			hCap = rest
		}
		for y := 0; y < m.l; y++ {
			lCap := maxL
			if rest := m.l - y; rest < lCap {
				lCap = rest
			}
			for x := 0; x < m.w; x++ {
				if !m.freeBitAt(m.rowIdx(y, z), x) {
					continue
				}
				for d := 1; d <= hCap; d++ {
					zz := z + d - 1
					for j := 0; j < lCap; j++ {
						r := m.runAtBits(m.rowIdx(y+j, zz), x)
						if d == 1 || r < rowMin[j] {
							rowMin[j] = r
						}
					}
					if rowMin[0] == 0 {
						break // anchor column blocked at this depth and deeper
					}
					minRun := m.w
					for l := 1; l <= lCap; l++ {
						if rowMin[l-1] < minRun {
							minRun = rowMin[l-1]
						}
						if minRun == 0 {
							break
						}
						w := minRun
						if w > maxW {
							w = maxW
						}
						if w*l*d > maxVol {
							w = maxVol / (l * d)
						}
						if w == 0 {
							continue
						}
						vol, spr := w*l*d, spread3(w, l, d)
						if vol > bestVol || (vol == bestVol && bestFound && spr < bestSpr) {
							best = SubAt3D(x, y, z, w, l, d)
							bestVol, bestSpr = vol, spr
							bestFound = true
						}
					}
				}
			}
		}
	}
	return best, bestFound
}
