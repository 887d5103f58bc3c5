package mesh

import (
	"math/rand"
	"testing"
)

// buildRowMask packs a free map into row words: bit x set iff free[x],
// tail bits past len(free) zero — the invariant freeW rows keep.
func buildRowMask(free []bool) []uint64 {
	words := make([]uint64, wordsPerRow(len(free)))
	for x, f := range free {
		if f {
			words[x>>6] |= 1 << uint(x&63)
		}
	}
	return words
}

func maskBit(words []uint64, x int) bool {
	return words[x>>6]>>uint(x&63)&1 == 1
}

// shiftDownAnd must compute out[x] = in[x] AND in[x+s] with zeros
// shifted in past the top word — the single pass the fit-mask
// composition is built from.
func TestShiftDownAndMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(4)
		in := make([]uint64, n)
		for i := range in {
			in[i] = rng.Uint64()
		}
		s := 1 + rng.Intn(n*64+10)
		buf := append([]uint64(nil), in...)
		shiftDownAnd(buf, s)
		for x := 0; x < n*64; x++ {
			want := maskBit(in, x) && x+s < n*64 && maskBit(in, x+s)
			if got := maskBit(buf, x); got != want {
				t.Fatalf("trial %d: shiftDownAnd(s=%d) bit %d = %v, want %v (in=%x)",
					trial, s, x, got, want, in)
			}
		}
	}
}

// fitMask must narrow a row mask to width-w window bases: bit x
// survives iff bits x..x+w-1 were all set, with the zero tail sealing
// the east edge.
func TestFitMaskMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, W := range []int{1, 7, 63, 64, 65, 100, 128, 130, 200} {
		for trial := 0; trial < 40; trial++ {
			free := make([]bool, W)
			density := rng.Float64()
			for x := range free {
				free[x] = rng.Float64() < density
			}
			in := buildRowMask(free)
			for _, w := range []int{1, 2, 1 + rng.Intn(W), W} {
				buf := append([]uint64(nil), in...)
				fitMask(buf, w)
				for x := 0; x < len(buf)*64; x++ {
					want := x+w <= W
					for i := x; want && i < x+w; i++ {
						want = free[i]
					}
					if got := maskBit(buf, x); got != want {
						t.Fatalf("W=%d w=%d trial %d: fit bit %d = %v, want %v (free=%v)",
							W, w, trial, x, got, want, free)
					}
				}
			}
		}
	}
}

// doubleRowInto must lay two wrapped copies of a W-bit row so that
// doubled bit p equals row bit p mod W for p < 2W, and every bit at or
// past 2W stays zero.
func TestDoubleRowMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, W := range []int{1, 5, 63, 64, 65, 97, 128, 130} {
		m := NewTorus(W, 2)
		for trial := 0; trial < 40; trial++ {
			free := make([]bool, W)
			for x := range free {
				free[x] = rng.Intn(2) == 0
			}
			src := buildRowMask(free)
			dst := make([]uint64, wordsPerRow(2*W))
			// Pre-soil dst: doubleRowInto must fully overwrite it.
			for i := range dst {
				dst[i] = rng.Uint64()
			}
			m.doubleRowInto(dst, src)
			for p := 0; p < len(dst)*64; p++ {
				want := p < 2*W && free[p%W]
				if got := maskBit(dst, p); got != want {
					t.Fatalf("W=%d trial %d: doubled bit %d = %v, want %v (free=%v)",
						W, trial, p, got, want, free)
				}
			}
		}
	}
}

// churnBitboard drives random sub-mesh allocate/release traffic through
// the per-cell model — including rejected requests, which must roll
// back cleanly — while cross-checking the word-parallel candidate
// enumeration against the retained run-table walk after every mutation.
func churnBitboard(t *testing.T, m *Mesh, rng *rand.Rand, steps int) {
	t.Helper()
	cm := newCellModel(m)
	var live []Submesh
	for step := 0; step < steps; step++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			w, l := 1+rng.Intn(m.w/2+1), 1+rng.Intn(m.l/2+1)
			s := SubAt(rng.Intn(m.w-w+1), rng.Intn(m.l-l+1), w, l)
			if cm.allocSub(t, s) == nil {
				live = append(live, s)
			}
		} else {
			i := rng.Intn(len(live))
			cm.releaseSub(t, live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for q := 0; q < 4; q++ {
			w, l := 1+rng.Intn(m.w), 1+rng.Intn(m.l)
			y := rng.Intn(m.l)
			if !m.torus {
				if l > m.l {
					l = m.l
				}
				y = rng.Intn(m.l - l + 1)
			}
			checkCandidatesRow(t, m, y, w, l)
		}
	}
}

func TestBitboardChurnPlanar(t *testing.T) {
	churnBitboard(t, New(97, 13), rand.New(rand.NewSource(74)), 400)
}

func TestBitboardChurnTorus(t *testing.T) {
	churnBitboard(t, NewTorus(97, 13), rand.New(rand.NewSource(75)), 400)
}

// The 3D churn additionally cross-checks the per-plane window fit mask
// against the volumetric run-table walk.
func TestBitboardChurn3D(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	m := New3D(70, 9, 5)
	cm := newCellModel(m)
	var live []Submesh
	for step := 0; step < 300; step++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			w, l, h := 1+rng.Intn(m.w/2+1), 1+rng.Intn(m.l), 1+rng.Intn(m.h)
			s := SubAt3D(rng.Intn(m.w-w+1), rng.Intn(m.l-l+1), rng.Intn(m.h-h+1), w, l, h)
			if cm.allocSub(t, s) == nil {
				live = append(live, s)
			}
		} else {
			i := rng.Intn(len(live))
			cm.releaseSub(t, live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for q := 0; q < 3; q++ {
			w, l, h := 1+rng.Intn(m.w), 1+rng.Intn(m.l), 1+rng.Intn(m.h)
			checkFitMask3D(t, m, rng.Intn(m.l-l+1), rng.Intn(m.h-h+1), w, l, h)
		}
	}
}

// fragment carves a deterministic scatter of busy cells so the word
// paths cross busy/free boundaries inside and across words.
func fragment(t *testing.T, m *Mesh, seed int64, frac float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	free := m.FreeNodes()
	n := int(float64(len(free)) * frac)
	occupy := make([]Coord, 0, n)
	for _, i := range rng.Perm(len(free))[:n] {
		occupy = append(occupy, free[i])
	}
	if err := m.Allocate(occupy); err != nil {
		t.Fatal(err)
	}
}

// The word-parallel search paths must not allocate once scratch is
// warm: they sit inside every simulated allocation attempt, so a
// single per-call allocation would dominate sim profiles.
func TestBitboardZeroAllocSteadyState(t *testing.T) {
	for _, torus := range []bool{false, true} {
		m := New(130, 40)
		if torus {
			m = NewTorus(130, 40)
		}
		fragment(t, m, 77, 0.3)
		drain := func() int {
			n := 0
			for range m.CandidatesRow(7, 9, 6) {
				n++
			}
			for range m.FreeSeq() {
				n++
			}
			return n
		}
		m.FirstFit(9, 6)
		m.BestFit(9, 6)
		drain() // warm the scratch
		avg := testing.AllocsPerRun(100, func() {
			m.FitsAt(3, 3, 9, 6)
			m.FirstFit(9, 6)
			m.BestFit(9, 6)
			drain()
		})
		if avg != 0 {
			t.Fatalf("torus=%v: word search paths allocate %v per call batch, want 0", torus, avg)
		}
	}
}

func TestBitboard3DZeroAllocSteadyState(t *testing.T) {
	m := New3D(130, 12, 6)
	fragment(t, m, 78, 0.3)
	m.FirstFit3D(7, 4, 2)
	m.BestFit3D(7, 4, 2) // warm the scratch
	avg := testing.AllocsPerRun(100, func() {
		m.FitsAt3D(2, 2, 1, 7, 4, 2)
		m.FirstFit3D(7, 4, 2)
		m.BestFit3D(7, 4, 2)
	})
	if avg != 0 {
		t.Fatalf("3D word search paths allocate %v per call batch, want 0", avg)
	}
}
