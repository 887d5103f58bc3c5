package mesh

// This file is the window walk behind every contiguous search: FirstFit
// and BestFit on planar, torus and 3D fabrics all run one walk per
// plane window (volume.go). A walk slides a w x l window up the base
// rows of a slab (slabOf) and yields, in ascending base row, exactly
// the base rows whose window holds a fit, each with its fit mask — bit
// x set iff the window based at column x is free.
//
// The window AND costs O(1) row operations per base row (the van Herk /
// Gil–Werman running-minimum filter, applied to AND). The rows are cut
// into blocks: at block top e, suf[j] is the AND of rows j..e for every
// base j of the block, and acc is the AND of rows e+1 up to the current
// window's top, so the window at base y is suf[y] & acc. Every partial
// AND is checked for a free run of width w as it grows, and a narrow
// one jumps the walk past every base whose window contains its rows:
//
//   - a narrow suffix at row j (rows j..e) lies in the window of every
//     base in [y, j], so the walk resumes at j+1 — at e+1 when the
//     block's top row alone is narrow, which is the row pruning of the
//     searches; the suffixes above j stay valid;
//   - a narrow acc (rows e+1..y+l-1) lies in the window of every base
//     in [y, e+1], so the walk resumes at e+2, past the block.
//
// A base past the block top starts a new block there. Each row enters
// a suffix at most once and acc at most once, so a plane costs O(L)
// row operations whatever l is. On a torus the base rows run 0..L-1
// and window rows past L wrap to row 0; a jump past L-1 ends the walk.
//
// The rows take one of two forms. A row of one word (W <= 64) enters
// the walk as its fit mask, folded once in a register (fold; ringFold
// on a torus): the fit mask of an AND is the AND of the fit masks, so
// a width check is a zero test and a window is its own fit mask. Wider
// rows stay free masks: a partial AND is checked with rowFitsWidth
// (ringFitsWidth on a torus) only when it changed a word, and a window
// is narrowed once, when it is reached — in place on a mesh (fitMask),
// through the doubled seam band on a torus (doubleRowInto), whose bits
// below W are the wrapped bases. docs/occupancy-index.md §7 holds the
// argument that no jump skips a fitting base.

// walk is the state of one window walk over one slab: the current base
// row y, the block top e, and top, the highest row ANDed into acc. The
// suffix of row j is stored at row e-j of suf, so L rows hold any
// block. A mesh keeps one walk in its scratch (newWalk).
type walk struct {
	m          *Mesh
	slab       []uint64
	w, l, last int // last: the last base row
	y, e, top  int
	suf, acc   []uint64
	band       []uint64 // the torus seam band
}

// newWalk readies the mesh's walk of a w x l window over slab (L rows
// of wpr words) from base row 0.
func (m *Mesh) newWalk(slab []uint64, w, l int) *walk {
	buf := sizedScratch(&m.hist.suf, (m.l+1)*m.wpr)
	k := &m.hist.walk
	k.m, k.slab, k.w, k.l, k.last = m, slab, w, l, m.l-l
	k.y, k.e, k.acc, k.suf = 0, -1, buf[:m.wpr], buf[m.wpr:]
	if m.torus {
		k.last = m.l - 1
		k.band = sizedScratch(&m.hist.bandMask, wordsPerRow(2*m.w))
	}
	return k
}

// next advances the walk to the next base row whose window holds a
// fit and returns it with its fit mask, which stays valid until the
// next call; ok is false once no base row remains.
func (k *walk) next() (y int, mask []uint64, ok bool) {
	wpr := k.m.wpr
	if wpr == 1 {
		return k.next1()
	}
next:
	for k.y <= k.last {
		if k.y > k.e {
			k.e, k.top = k.y+k.l-1, k.y+k.l-1
			fillRowFree(k.acc, k.m.w) // acc holds no row yet
			prev := k.acc
			for j := k.e; j >= k.y; j-- {
				s := k.suf[(k.e-j)*wpr:][:wpr]
				if !k.andRow(s, prev, j) {
					k.y = j + 1 // rows j..e lie in every window of [y, j]
					continue next
				}
				prev = s
			}
		}
		for k.top < k.y+k.l-1 {
			k.top++
			if !k.andRow(k.acc, k.acc, k.top) {
				k.y = k.e + 2 // rows e+1..top lie in every window of [y, e+1]
				continue next
			}
		}
		// A base's suffix is not read again, so its window narrows there.
		y = k.y
		k.y++
		win := k.suf[(k.e-y)*wpr:][:wpr]
		for i := range win {
			win[i] &= k.acc[i]
		}
		if k.m.torus {
			k.m.doubleRowInto(k.band, win)
			win = k.band
		}
		if fitMask(win, k.w); anyBit(win) {
			return y, win, true
		}
	}
	return 0, nil, false
}

// andRow sets dst to prev AND row j of the slab, rows past L wrapping to
// row 0, and reports whether dst still holds a free run of the width.
// An AND that changed no word of prev keeps prev's answer, which was
// yes.
func (k *walk) andRow(dst, prev []uint64, j int) bool {
	if j >= k.m.l {
		j -= k.m.l
	}
	row, changed := k.slab[j*len(dst):][:len(dst)], uint64(0)
	for i, v := range row {
		changed |= prev[i] &^ v
		dst[i] = prev[i] & v
	}
	switch {
	case changed == 0:
		return true
	case k.m.torus:
		return k.m.ringFitsWidth(dst, k.w)
	}
	return k.m.rowFitsWidth(dst, k.w)
}

// next1 is next on one-word rows, which the walk keeps as fit masks.
func (k *walk) next1() (y int, mask []uint64, ok bool) {
next:
	for k.y <= k.last {
		if k.y > k.e {
			k.e, k.top, k.acc[0] = k.y+k.l-1, k.y+k.l-1, ^uint64(0)
			s := ^uint64(0)
			for j := k.e; j >= k.y; j-- {
				if s &= k.fit1(j); s == 0 {
					k.y = j + 1
					continue next
				}
				k.suf[k.e-j] = s
			}
		}
		for k.top < k.y+k.l-1 {
			k.top++
			if k.acc[0] &= k.fit1(k.top); k.acc[0] == 0 {
				k.y = k.e + 2
				continue next
			}
		}
		y = k.y
		k.y++
		if k.suf[k.e-y] &= k.acc[0]; k.suf[k.e-y] != 0 {
			return y, k.suf[k.e-y:][:1], true
		}
	}
	return 0, nil, false
}

// fit1 returns the fit mask of one-word row j of the slab, rows past L
// wrapping to row 0.
func (k *walk) fit1(j int) uint64 {
	if j >= k.m.l {
		j -= k.m.l
	}
	if k.m.torus {
		return ringFold(k.slab[j], k.w, k.m.w)
	}
	return fold(k.slab[j], k.w)
}
