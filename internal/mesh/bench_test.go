package mesh

import (
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// fragmented builds a 16x22 mesh with ~40 % scattered occupancy.
func fragmented(b *testing.B) *Mesh {
	b.Helper()
	m := New(16, 22)
	s := stats.NewStream(9)
	free := m.FreeNodes()
	perm := s.Perm(len(free))
	var occupy []Coord
	for _, i := range perm[:140] {
		occupy = append(occupy, free[i])
	}
	if err := m.Allocate(occupy); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFirstFit times FirstFit on the paper's 16x22 mesh at ~40%
// scattered occupancy: a 4x2 request, which fits, and a 4x5 one, which
// does not — a failing search, the common case of a streamed FirstFit
// run under load.
func BenchmarkFirstFit(b *testing.B) {
	cases := []struct {
		name string
		w, l int
		fits bool
	}{
		{"4x2", 4, 2, true},
		{"4x5nofit", 4, 5, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m := fragmented(b)
			if _, ok := m.FirstFit(c.w, c.l); ok != c.fits {
				b.Fatalf("FirstFit(%d,%d) found a fit: %v, want %v", c.w, c.l, ok, c.fits)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.FirstFit(c.w, c.l)
			}
		})
	}
}

// BenchmarkBestFit times BestFit on the paper's 16x22 mesh at ~40%
// scattered occupancy, where a 4x2 request fits and nothing 3 wide is
// 3 tall; on
// ~30%-fragmented fabrics — a 128x128 mesh, a 64x64 torus and a
// 32x32x8 volume — where busy cells lie next to most bases, so the
// scorer's bound skips few words; and on a 128x128 mesh about a fifth
// busy in a few large blocks, the light load of perfbench's
// fabric_search BestFit cells, where the bound and the zero-score
// filter leave almost no base to score.
func BenchmarkBestFit(b *testing.B) {
	scattered := func(m *Mesh) func(b *testing.B) *Mesh {
		return func(b *testing.B) *Mesh {
			occupyRandom(b, m, rand.New(rand.NewSource(9)), 0.3)
			return m
		}
	}
	cases := []struct {
		name    string
		build   func(b *testing.B) *Mesh
		w, l, h int
		fits    bool
	}{
		{"16x22", fragmented, 4, 2, 1, true},
		{"mesh128", scattered(New(128, 128)), 6, 5, 1, true},
		{"torus64", scattered(NewTorus(64, 64)), 6, 5, 1, true},
		{"volume32x32x8", scattered(New3D(32, 32, 8)), 4, 3, 2, true},
		{"mesh128light", func(b *testing.B) *Mesh {
			m := New(128, 128)
			for _, s := range []Submesh{
				SubAt(10, 12, 30, 24), SubAt(70, 5, 40, 20), SubAt(20, 60, 24, 30),
				SubAt(80, 70, 28, 36), SubAt(50, 110, 36, 12),
			} {
				if err := m.AllocateSub(s); err != nil {
					b.Fatal(err)
				}
			}
			return m
		}, 12, 10, 1, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m := c.build(b)
			if _, ok := m.BestFit3D(c.w, c.l, c.h); ok != c.fits {
				b.Fatalf("BestFit3D(%d,%d,%d) found a fit: %v, want %v", c.w, c.l, c.h, ok, c.fits)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.BestFit3D(c.w, c.l, c.h)
			}
		})
	}
}

func BenchmarkLargestFree(b *testing.B) {
	m := fragmented(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LargestFree(10, 12, 80)
	}
}

// benchChurn drives the hot allocate-search-release cycle the simulator
// spends its time in: every iteration either first-fits and commits a
// random sub-mesh or releases a random live one, so the occupancy index
// is mutated and queried on every step (no static-mesh amortization).
func benchChurn(b *testing.B, w, l int) {
	b.Helper()
	m := New(w, l)
	s := stats.NewStream(7)
	var live []Submesh
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(live) > 8 && (s.Intn(2) == 0 || m.FreeCount() < m.Size()/4) {
			k := s.Intn(len(live))
			if err := m.ReleaseSub(live[k]); err != nil {
				b.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		rw, rl := s.UniformInt(1, max(2, w/8)), s.UniformInt(1, max(2, l/8))
		if sub, ok := m.FirstFit(rw, rl); ok {
			if err := m.AllocateSub(sub); err != nil {
				b.Fatal(err)
			}
			live = append(live, sub)
		}
	}
}

func BenchmarkChurn16x22(b *testing.B)   { benchChurn(b, 16, 22) }
func BenchmarkChurn64x64(b *testing.B)   { benchChurn(b, 64, 64) }
func BenchmarkChurn256x256(b *testing.B) { benchChurn(b, 256, 256) }

// fragmentHalf fills about half of m with random free-standing blocks
// of sides up to side (depth up to half the mesh's), the layout
// perfbench's fragment leaves at side W/8.
func fragmentHalf(tb testing.TB, m *Mesh, side int) *Mesh {
	tb.Helper()
	rng := stats.NewStream(9)
	for tries := 0; 2*m.BusyCount() < m.Size() && tries < 1<<20; tries++ {
		w, l, h := rng.UniformInt(1, side), rng.UniformInt(1, side), rng.UniformInt(1, max(1, m.h/2))
		if s := SubAt3D(rng.Intn(m.w-w+1), rng.Intn(m.l-l+1), rng.Intn(m.h-h+1), w, l, h); m.SubFree(s) {
			if err := m.AllocateSub(s); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return m
}

// BenchmarkProbes times perfbench's five mesh search probes at their
// sizes and arguments, each on fragmentHalf at side W/8 — on a square
// mesh exactly perfbench's fragment layout (the same stream, seed and
// draw order) — so a change to the searches is resolved over many
// rounds, not read off one traced rep's probe sample.
func BenchmarkProbes(b *testing.B) {
	cases := []struct {
		name   string
		build  func() *Mesh
		search func(m *Mesh) bool
	}{
		{"best_fit_ns.512", func() *Mesh { return New(512, 512) },
			func(m *Mesh) bool { _, ok := m.BestFit(16, 16); return ok }},
		{"best_fit_ns.torus256", func() *Mesh { return NewTorus(256, 256) },
			func(m *Mesh) bool { _, ok := m.BestFit(16, 16); return ok }},
		{"largest_free_ns.1024", func() *Mesh { return New(1024, 1024) },
			func(m *Mesh) bool { _, ok := m.LargestFree(512, 512, 1<<16); return ok }},
		{"largest_free3d_ns.64x64x16", func() *Mesh { return New3D(64, 64, 16) },
			func(m *Mesh) bool { _, ok := m.LargestFree3D(32, 32, 8, 1<<13); return ok }},
		{"first_fit_ns.64", func() *Mesh { return New(64, 64) },
			func(m *Mesh) bool { _, ok := m.FirstFit(6, 6); return ok }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m := c.build()
			m = fragmentHalf(b, m, m.w/8)
			if !c.search(m) {
				b.Fatal("search found nothing on the fragmented mesh")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.search(m)
			}
		})
	}
}

// BenchmarkSweep times the constrained-largest search's full sweep —
// the MW table alone (maxWidths), at the length and depth caps of
// perfbench's search probes (half the mesh) — on half-busy fabrics.
// Coarse blocks leave long plateaus of equal column height, few
// segments per row; fine blocks leave a segment every few columns,
// where stepping the stack per segment saves little over stepping it
// per column, and almost no two adjacent rows equal, so bands are one
// row long. The torus case is the only timing of the torus sweep: no
// workload runs GABL on a torus.
func BenchmarkSweep(b *testing.B) {
	cases := []struct {
		name  string
		build func() *Mesh
		side  int
	}{
		{"coarse1024", func() *Mesh { return New(1024, 1024) }, 128},
		{"fine1024", func() *Mesh { return New(1024, 1024) }, 4},
		{"torus256", func() *Mesh { return NewTorus(256, 256) }, 32},
		{"volume64x64x16", func() *Mesh { return New3D(64, 64, 16) }, 8},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m := fragmentHalf(b, c.build(), c.side)
			sweep := func() { m.maxWidths(m.l/2, max(1, m.h/2)) }
			sweep() // size the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
		})
	}
}
