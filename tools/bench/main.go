// Command bench runs the repository's end-to-end allocation benchmarks
// and writes a BENCH_*.json snapshot, so successive PRs accumulate a
// machine-readable performance trajectory that future changes can diff
// against.
//
// Three benchmark families are measured:
//
//   - des/*: the discrete-event core's steady-state schedule+fire cycle,
//     alone (event_steady_state) and with ~160 events pending on few
//     distinct times, the same-time chain path the paper's packet
//     traffic takes (event_ties); both must stay allocation-free;
//   - search/*: mesh occupancy searches on a fragmented mesh — planar,
//     torus and the 32x32x8 volumetric LargestFree3D (all must stay
//     allocation-free once warm);
//   - fault/*: the fault-path hot loops — the same searches on meshes
//     that are fragmented AND carry pinned (failed) cells, plus the
//     warm Fail/Recover cycle (all must stay allocation-free once
//     warm);
//   - netfault/*: the network-layer fault hot paths — the warm
//     FailLink/RecoverLink cycle and the detour router, both the clean
//     fast path (bit-identical XYZ) and the BFS detour around a cut
//     (all must stay allocation-free once warm);
//   - bitboard/*: the word-parallel occupancy primitives in isolation
//     on fragmented meshes at 64/256/1024 widths — masked fit probes
//     (fits_at), free-run extraction (free_runs), the histogram sweep
//     over row words (sweep) and the projected-plane 3D sweep (proj3d);
//     all must stay allocation-free once warm;
//   - mutate/*: the pure mutation path in isolation — warm
//     AllocateSub/ReleaseSub round-trips over a fixed tiling (no
//     searches in the loop) on 256x256, 1024x1024 and 64x64x16 meshes,
//     plus a pinned-cell variant; all must stay allocation-free once
//     warm;
//   - alloc/*: full simulation runs (arrival → schedule → allocate →
//     release) on 64x64 and 256x256 meshes, both topologies, plus the
//     32x32x8 3D mesh, under the allocation-stress workload with zero
//     communication;
//   - large/*: allocation-heavy runs on 512x512, 1024x1024 and
//     64x64x16 meshes, one case per mesh and strategy — the wide-mesh
//     cost of the BestFit scoring kernel and of GABL's probe and
//     histogram-sweep path;
//   - stream/*: the streaming workload engine — stream/source/* is the
//     per-job draw cost of each source family (one Next call per op;
//     must stay allocation-free in steady state), and stream/sim/* is
//     an end-to-end time-bounded run over millions of streamed jobs
//     whose jobs_per_sec and bytes_per_job axes demonstrate that
//     workload-side memory does not grow with job count.
//
// Usage:
//
//	go run ./tools/bench [-short] [-check] [-o BENCH_PR5.json]
//
// -short trims the job counts and case list for CI smoke runs. -check
// exits non-zero if any des/*, search/* or bitboard/* case reports a
// non-zero allocs/op — the regression gate CI runs on every push. The output
// schema is documented in README.md ("Benchmark trajectory").
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Case is one benchmark measurement in the JSON snapshot.
type Case struct {
	Name        string `json:"name"`           // family/mesh/topology/strategy
	NsPerOp     int64  `json:"ns_per_op"`      // wall time per benchmark op
	AllocsPerOp int64  `json:"allocs_per_op"`  // heap allocations per op
	BytesPerOp  int64  `json:"bytes_per_op"`   // heap bytes per op
	Ops         int    `json:"ops"`            // iterations the harness settled on
	Jobs        int    `json:"jobs,omitempty"` // completed jobs per op (job-driven cases)
	// JobsPerSec and BytesPerJob are the per-job axes of the job-driven
	// cases (alloc/*, large/*, stream/sim/*): end-to-end throughput and
	// cumulative heap bytes per streamed job. The memory-independence
	// evidence is bytes_per_job staying flat as the stream/sim job
	// count grows 10x (the workload engine contributes 0 of it — see
	// the stream/source/* cases; the residue is the allocator's
	// per-placement piece list, constant per job and short-lived).
	JobsPerSec  float64 `json:"jobs_per_sec,omitempty"`
	BytesPerJob float64 `json:"bytes_per_job,omitempty"`
}

// Snapshot is the BENCH_*.json document.
type Snapshot struct {
	Label string `json:"label"` // e.g. "PR3"
	Go    string `json:"go"`    // toolchain the numbers were taken with
	// Cores is the host's GOMAXPROCS. Every case runs on one
	// goroutine, so it tells snapshots from busier or idler hosts apart
	// rather than bounding any speed-up.
	Cores int    `json:"cores"`
	Short bool   `json:"short"` // true when produced by a -short smoke run
	Cases []Case `json:"cases"`
}

func main() {
	short := flag.Bool("short", false, "smoke mode: fewer jobs, fewer cases")
	check := flag.Bool("check", false, "fail on alloc-count regressions in des/* and search/*")
	out := flag.String("o", "", "write the JSON snapshot to this file (default: stdout)")
	label := flag.String("label", "PR5", "snapshot label")
	flag.Parse()

	snap := Snapshot{Label: *label, Go: runtime.Version(), Cores: runtime.GOMAXPROCS(0), Short: *short}
	snap.Cases = append(snap.Cases, desCases()...)
	snap.Cases = append(snap.Cases, searchCases()...)
	snap.Cases = append(snap.Cases, faultCases(*short)...)
	snap.Cases = append(snap.Cases, netfaultCases(*short)...)
	snap.Cases = append(snap.Cases, bitboardCases(*short)...)
	snap.Cases = append(snap.Cases, mutateCases(*short)...)
	snap.Cases = append(snap.Cases, allocCases(*short)...)
	snap.Cases = append(snap.Cases, largeCases(*short)...)
	snap.Cases = append(snap.Cases, streamCases(*short)...)

	for _, c := range snap.Cases {
		fmt.Fprintf(os.Stderr, "%-40s %12d ns/op %8d allocs/op %10d B/op\n",
			c.Name, c.NsPerOp, c.AllocsPerOp, c.BytesPerOp)
	}

	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(blob)
	}

	if *check {
		bad := false
		for _, c := range snap.Cases {
			if (strings.HasPrefix(c.Name, "des/") || strings.HasPrefix(c.Name, "search/") ||
				strings.HasPrefix(c.Name, "bitboard/") || strings.HasPrefix(c.Name, "fault/") ||
				strings.HasPrefix(c.Name, "netfault/") || strings.HasPrefix(c.Name, "mutate/") ||
				strings.HasPrefix(c.Name, "stream/source/")) &&
				c.AllocsPerOp != 0 {
				fmt.Fprintf(os.Stderr, "bench: ALLOC REGRESSION: %s reports %d allocs/op, want 0\n",
					c.Name, c.AllocsPerOp)
				bad = true
			}
		}
		if bad {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "bench: alloc gate passed (des/*, search/*, fault/*, netfault/*, bitboard/*, mutate/* and stream/source/* at 0 allocs/op)")
	}
}

// record runs one benchmark function and captures its result. Cases
// that complete jobs per op also get the derived per-job axes.
func record(name string, jobs int, fn func(b *testing.B)) Case {
	r := testing.Benchmark(fn)
	c := Case{
		Name:        name,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Ops:         r.N,
		Jobs:        jobs,
	}
	if jobs > 0 && c.NsPerOp > 0 {
		c.JobsPerSec = float64(jobs) * 1e9 / float64(c.NsPerOp)
		c.BytesPerJob = float64(c.BytesPerOp) / float64(jobs)
	}
	return c
}

// desCases measures the event core's warm schedule+fire cycle, alone
// and in a tie-heavy hold model.
func desCases() []Case {
	return []Case{record("des/event_steady_state", 0, func(b *testing.B) {
		e := des.NewEngine()
		fn := func(any) {}
		for i := 0; i < 64; i++ { // warm the pool
			e.ScheduleEvent(1, fn, nil)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ScheduleEvent(1, fn, nil)
			e.Step()
		}
	}), record("des/event_ties", 0, func(b *testing.B) {
		// The hold model of des.BenchmarkHoldTies: 160 events pending,
		// each fired event rescheduled 1-8 whole cycles on, from three
		// fractional base times, so most schedules join a chain.
		e := des.NewEngine()
		rng := stats.NewStream(5)
		offsets := make([]des.Time, 1024)
		for i := range offsets {
			offsets[i] = des.Time(1 + rng.Intn(8))
		}
		k := 0
		var hold des.EventFunc
		hold = func(any) {
			e.ScheduleEvent(offsets[k&1023], hold, nil)
			k++
		}
		bases := [...]des.Time{0.25, 0.375, 0.8125}
		for i := 0; i < 160; i++ {
			e.AtEvent(bases[i%3]+offsets[i], hold, nil)
		}
		for i := 0; i < 1024; i++ { // warm the pool and the cache
			e.Step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})}
}

// fragmented scatters ~40% occupancy over a mesh, seeding the searches
// with a realistic mixed free space.
func fragmented(m *mesh.Mesh) *mesh.Mesh {
	s := stats.NewStream(9)
	free := m.FreeNodes()
	perm := s.Perm(len(free))
	occupy := make([]mesh.Coord, 0, len(free)*2/5)
	for _, i := range perm[:len(free)*2/5] {
		occupy = append(occupy, free[i])
	}
	if err := m.Allocate(occupy); err != nil {
		panic(err)
	}
	return m
}

// searchCases measures the occupancy searches on fragmented meshes.
func searchCases() []Case {
	mk := func(name string, m *mesh.Mesh, maxW, maxL, maxArea int) Case {
		m = fragmented(m)
		m.LargestFree(maxW, maxL, maxArea) // warm the sweep scratch
		return record(name, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.LargestFree(maxW, maxL, maxArea)
			}
		})
	}
	mk3 := func(name string, m *mesh.Mesh, maxW, maxL, maxH, maxVol int) Case {
		m = fragmented(m)
		m.LargestFree3D(maxW, maxL, maxH, maxVol) // warm the sweep scratch
		return record(name, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.LargestFree3D(maxW, maxL, maxH, maxVol)
			}
		})
	}
	return []Case{
		mk("search/largest_free/64x64/mesh", mesh.New(64, 64), 32, 32, 512),
		mk("search/largest_free/64x64/torus", mesh.NewTorus(64, 64), 32, 32, 512),
		mk("search/largest_free/256x256/mesh", mesh.New(256, 256), 128, 128, 4096),
		mk("search/largest_free/256x256/torus", mesh.NewTorus(256, 256), 128, 128, 4096),
		mk3("search/largest_free3d/32x32x8/mesh", mesh.New3D(32, 32, 8), 16, 16, 4, 1024),
	}
}

// pinScatter fails n evenly spread free cells, modelling a machine
// with scattered dead processors.
func pinScatter(m *mesh.Mesh, n int) *mesh.Mesh {
	s := stats.NewStream(17)
	free := m.FreeNodes()
	perm := s.Perm(len(free))
	for _, i := range perm[:n] {
		if err := m.Fail(free[i]); err != nil {
			panic(err)
		}
	}
	return m
}

// faultCases measures the fault-path hot loops: occupancy searches on
// meshes that are both fragmented and pinned (the allocator's view
// during an outage), and the warm Fail/Recover cycle itself. All must
// stay allocation-free once warm — pins ride the ordinary index
// machinery, so they may not introduce a slow path.
func faultCases(short bool) []Case {
	mkSearch := func(name string, m *mesh.Mesh, maxW, maxL, maxArea int) Case {
		m = pinScatter(fragmented(m), m.Size()/64)
		m.LargestFree(maxW, maxL, maxArea) // warm the sweep scratch
		return record(name, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.LargestFree(maxW, maxL, maxArea)
			}
		})
	}
	cycle := func(name string, m *mesh.Mesh) Case {
		m = fragmented(m)
		c := m.FreeNodes()[0]
		// Warm: first Fail lazily allocates the pin arrays.
		if err := m.Fail(c); err != nil {
			panic(err)
		}
		if err := m.Recover(c); err != nil {
			panic(err)
		}
		return record(name, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.Fail(c); err != nil {
					panic(err)
				}
				if err := m.Recover(c); err != nil {
					panic(err)
				}
			}
		})
	}
	cases := []Case{
		mkSearch("fault/largest_free/64x64/mesh", mesh.New(64, 64), 32, 32, 512),
		cycle("fault/fail_recover/64x64/mesh", mesh.New(64, 64)),
	}
	if !short {
		cases = append(cases,
			mkSearch("fault/largest_free/256x256/mesh", mesh.New(256, 256), 128, 128, 4096),
			mkSearch("fault/largest_free/64x64/torus", mesh.NewTorus(64, 64), 32, 32, 512),
			cycle("fault/fail_recover/256x256/mesh", mesh.New(256, 256)),
		)
	}
	return cases
}

// netfaultCases measures the network-layer fault hot paths: the warm
// FailLink/RecoverLink cycle on an idle fabric (state flips and queue
// bounce with nothing queued) and the detour router — the clean-path
// fast path that reproduces XYZ exactly, and the BFS detour around a
// cut on the route. All scratch (bounce buffer, BFS arrays, the path
// itself) is reused, so every case must stay allocation-free once
// warm.
func netfaultCases(short bool) []Case {
	cycle := func(name string, w, l int, topo network.Topology) Case {
		cfg := network.DefaultConfig()
		cfg.Topology = topo
		net := network.New(des.NewEngine(), w, l, cfg)
		c := mesh.Coord{X: w / 2, Y: l / 2}
		// Warm: the first fail sizes the bounce scratch.
		if err := net.FailLink(c, network.East); err != nil {
			panic(err)
		}
		if err := net.RecoverLink(c, network.East); err != nil {
			panic(err)
		}
		return record(name, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := net.FailLink(c, network.East); err != nil {
					b.Fatal(err)
				}
				if err := net.RecoverLink(c, network.East); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	route := func(name string, w, l int, cut bool) Case {
		net := network.New(des.NewEngine(), w, l, network.DefaultConfig())
		src := mesh.Coord{}
		dst := mesh.Coord{X: w - 1, Y: l - 1}
		if cut {
			// On the XYZ route: forces the BFS on every call.
			if err := net.FailLink(mesh.Coord{X: w / 2}, network.East); err != nil {
				panic(err)
			}
		}
		var buf []int32
		buf, ok := net.RouteAround(buf, src, dst) // warm path + BFS scratch
		if !ok {
			panic("bench: no route on warmup")
		}
		return record(name, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ok bool
				buf, ok = net.RouteAround(buf[:0], src, dst)
				if !ok {
					b.Fatal("no route")
				}
			}
		})
	}
	cases := []Case{
		cycle("netfault/fail_recover/16x22/mesh", 16, 22, network.MeshTopology),
		route("netfault/route_around/clean/16x22", 16, 22, false),
		route("netfault/route_around/detour/16x22", 16, 22, true),
	}
	if !short {
		cases = append(cases,
			cycle("netfault/fail_recover/32x32/torus", 32, 32, network.TorusTopology),
			route("netfault/route_around/detour/64x64", 64, 64, true),
		)
	}
	return cases
}

// bitboardCases measures the word-parallel occupancy primitives in
// isolation on fragmented meshes: masked fit probes, free-run
// extraction, the histogram sweep over row words, and the
// projected-plane 3D sweep. The width axis (64/256/1024) spans one-word
// rows through 16-word rows, where word-parallelism pays most.
func bitboardCases(short bool) []Case {
	widths := []int{64, 256, 1024}
	if short {
		widths = []int{64, 256}
	}
	var out []Case
	for _, n := range widths {
		m := fragmented(mesh.New(n, n))
		m.FitsAt(0, 0, 8, 8) // warm any lazy scratch
		out = append(out, record(fmt.Sprintf("bitboard/fits_at/%d", n), 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.FitsAt(i*31%(n-8), i*17%(n-8), 8, 8)
			}
		}))
		out = append(out, record(fmt.Sprintf("bitboard/free_runs/%d", n), 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := 0
				for range m.FreeSeq() {
					c++
				}
				if c == 0 {
					b.Fatal("no free processors")
				}
			}
		}))
		m.LargestFree(n/2, n/2, n*n/16) // warm the sweep scratch
		out = append(out, record(fmt.Sprintf("bitboard/sweep/%d", n), 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.LargestFree(n/2, n/2, n*n/16)
			}
		}))
		m3 := fragmented(mesh.New3D(n, n, 4))
		m3.LargestFree3D(n/2, n/2, 2, n*n/8) // warm the sweep scratch
		out = append(out, record(fmt.Sprintf("bitboard/proj3d/%d", n), 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m3.LargestFree3D(n/2, n/2, 2, n*n/8)
			}
		}))
	}
	return out
}

// mutateCases measures the pure mutation path — what Allocate/Release
// cost with no search in the loop. The mesh is tiled half-density with
// fixed blocks, all pre-allocated; one op is one ReleaseSub+AllocateSub
// round-trip on the next block in the tiling, so every op flips the
// same number of cells and the occupancy the index maintains is
// identical at the start of every op. The pinned variant scatters
// failed cells over the free half first, so the flips run with the
// pinned-cell overlay active. All cases must stay allocation-free.
func mutateCases(short bool) []Case {
	churn := func(name string, m *mesh.Mesh, bw, bl, bh, pins int) Case {
		var boxes []mesh.Submesh
		for z := 0; z+bh <= m.H(); z += 2 * bh {
			for y := 0; y+bl <= m.L(); y += 2 * bl {
				for x := 0; x+bw <= m.W(); x += 2 * bw {
					boxes = append(boxes, mesh.Submesh{
						X1: x, Y1: y, Z1: z,
						X2: x + bw - 1, Y2: y + bl - 1, Z2: z + bh - 1,
					})
				}
			}
		}
		for _, s := range boxes {
			if err := m.AllocateSub(s); err != nil {
				panic(err)
			}
		}
		if pins > 0 {
			pinScatter(m, pins)
		}
		// Warm: one full round-trip per block position.
		for _, s := range boxes {
			if err := m.ReleaseSub(s); err != nil {
				panic(err)
			}
			if err := m.AllocateSub(s); err != nil {
				panic(err)
			}
		}
		return record(name, 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := boxes[i%len(boxes)]
				if err := m.ReleaseSub(s); err != nil {
					b.Fatal(err)
				}
				if err := m.AllocateSub(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	cases := []Case{
		churn("mutate/sub_churn/256x256", mesh.New(256, 256), 8, 8, 1, 0),
	}
	if !short {
		cases = append(cases,
			churn("mutate/sub_churn/1024x1024", mesh.New(1024, 1024), 8, 8, 1, 0),
			churn("mutate/sub_churn/64x64x16", mesh.New3D(64, 64, 16), 8, 8, 4, 0),
			churn("mutate/sub_churn/1024x1024/pinned", mesh.New(1024, 1024), 8, 8, 1, 1024),
		)
	}
	return cases
}

// largeCases measures large-mesh allocation-heavy runs end to end,
// one case per mesh and strategy. BestFit scores every fitting
// candidate up to the first that reaches the score ceiling — the whole
// candidate space when none does, which on a fragmented mesh is most
// allocations; GABL adds the probe + histogram-sweep path.
func largeCases(short bool) []Case {
	type cfg struct {
		w, l, h  int
		strategy string
		jobs     int
	}
	cases := []cfg{
		{512, 512, 1, "BestFit", 150},
		{1024, 1024, 1, "BestFit", 40},
		{1024, 1024, 1, "GABL", 400},
		{64, 64, 16, "GABL", 1000},
	}
	if short {
		cases = []cfg{{256, 256, 1, "BestFit", 60}}
	}
	out := make([]Case, 0, len(cases))
	for _, c := range cases {
		geom := fmt.Sprintf("%dx%d", c.w, c.l)
		if c.h > 1 {
			geom = fmt.Sprintf("%dx%dx%d", c.w, c.l, c.h)
		}
		name := fmt.Sprintf("large/%s/%s", geom, c.strategy)
		out = append(out, record(name, c.jobs, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := sim.DefaultConfig()
				sc.MeshW, sc.MeshL, sc.MeshH = c.w, c.l, c.h
				sc.Strategy = c.strategy
				sc.MaxCompleted = c.jobs
				sc.WarmupJobs = c.jobs / 10
				sc.MaxQueued = 4 * c.jobs
				src := workload.NewAllocStress3D(stats.NewStream(29), c.w, c.l, c.h, 0.07, 100)
				res, err := sim.Run(sc, src)
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed == 0 {
					b.Fatal("run completed no jobs")
				}
			}
		}))
	}
	return out
}

// streamCases measures the streaming workload engine. stream/source/*
// isolates the per-job draw: one op is one Next call on a warm source
// (synthetic Paragon generator, stochastic generator, chunked trace
// reader), and every case must stay allocation-free — the 0-alloc
// contract the -check gate enforces. The chunked-reader case streams a
// pre-rendered trace from memory and restarts the stream when it
// exhausts; a restart costs a couple of allocations per ~10^5 jobs,
// which amortizes to 0 allocs/op. stream/sim/* runs the whole
// simulator over millions of streamed jobs on a zero-communication
// mesh: the jobs_per_sec and bytes_per_job axes, compared across the
// 1M and 10M cases, demonstrate workload-side memory independent of
// job count — bytes_per_job stays flat (and small: the allocator's
// per-placement piece list) while the job count grows 10x, where a
// materialized workload would carry ~100 B of Job per job before the
// run even starts.
func streamCases(short bool) []Case {
	var out []Case

	// Synthetic Paragon generator, effectively unbounded.
	spec := workload.DefaultParagon()
	spec.Jobs = 1 << 40
	psrc := workload.NewParagonSource(spec, 7)
	psrc.Next() // warm
	out = append(out, record("stream/source/paragon", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := psrc.Next(); !ok {
				b.Fatal("paragon stream exhausted")
			}
		}
	}))

	// Stochastic generator (unbounded by construction).
	ssrc := workload.NewStochastic3D(stats.NewStream(11), 16, 22, 1, workload.UniformSides, 0.002, 5)
	ssrc.Next() // warm
	out = append(out, record("stream/source/stochastic", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := ssrc.Next(); !ok {
				b.Fatal("stochastic stream exhausted")
			}
		}
	}))

	// Chunked trace reader over a pre-rendered in-memory trace.
	tn := 100000
	if short {
		tn = 20000
	}
	tspec := workload.DefaultParagon()
	tspec.Jobs = tn
	var traceBuf bytes.Buffer
	if _, err := workload.WriteTraceStream(&traceBuf, workload.NewParagonSource(tspec, 5), false); err != nil {
		panic(err)
	}
	traceData := traceBuf.Bytes()
	trng := stats.NewStream(13)
	trd := bytes.NewReader(traceData)
	tsrc := workload.NewTraceSource(trd, "bench", 16, 22, 5, trng, 0)
	tsrc.Next() // warm
	out = append(out, record("stream/source/trace_chunked", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := tsrc.Next(); !ok {
				if err := tsrc.Err(); err != nil {
					b.Fatal(err)
				}
				trd.Reset(traceData)
				tsrc = workload.NewTraceSource(trd, "bench", 16, 22, 5, trng, 0)
			}
		}
	}))

	// End-to-end: a job-count-bounded run over a streamed workload on a
	// zero-communication mesh. FirstFit keeps the per-job allocator
	// cost minimal so the streaming engine dominates the denominator.
	simRun := func(name string, jobs int) Case {
		return record(name, jobs, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := sim.DefaultConfig()
				sc.MeshW, sc.MeshL = 64, 64
				sc.Strategy = "FirstFit"
				sc.MaxCompleted = jobs
				sc.WarmupJobs = 0
				sc.MaxQueued = 4096
				src := workload.NewAllocStress3D(stats.NewStream(23), 64, 64, 1, 0.07, 100)
				res, err := sim.Run(sc, src)
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed < jobs {
					b.Fatalf("run completed %d of %d jobs", res.Completed, jobs)
				}
			}
		})
	}
	out = append(out, simRun("stream/sim/alloc_stress/100k", 100000))
	if !short {
		// The full three-point curve: bytes_per_job flat across two
		// orders of magnitude in job count is the memory-independence
		// evidence.
		out = append(out,
			simRun("stream/sim/alloc_stress/1M", 1000000),
			simRun("stream/sim/alloc_stress/10M", 10000000),
		)
	}
	return out
}

// allocCases measures full zero-communication simulation runs: the
// scheduler → strategy → occupancy-index stack at production scale.
func allocCases(short bool) []Case {
	type cfg struct {
		w, l, h  int
		topology network.Topology
		strategy string
		jobs     int
	}
	cases := []cfg{
		{64, 64, 1, network.MeshTopology, "GABL", 2000},
		{64, 64, 1, network.MeshTopology, "FirstFit", 2000},
		{64, 64, 1, network.MeshTopology, "BestFit", 2000},
		{64, 64, 1, network.MeshTopology, "MBS", 2000},
		{64, 64, 1, network.TorusTopology, "GABL", 2000},
		{256, 256, 1, network.MeshTopology, "GABL", 800},
		{256, 256, 1, network.MeshTopology, "ANCA", 800},
		{256, 256, 1, network.TorusTopology, "GABL", 400},
		{32, 32, 8, network.MeshTopology, "GABL", 2000},
		{32, 32, 8, network.MeshTopology, "FirstFit", 2000},
	}
	if short {
		cases = []cfg{
			{64, 64, 1, network.MeshTopology, "GABL", 300},
			{64, 64, 1, network.TorusTopology, "GABL", 300},
			{256, 256, 1, network.MeshTopology, "GABL", 150},
			{32, 32, 8, network.MeshTopology, "GABL", 300},
		}
	}
	out := make([]Case, 0, len(cases))
	for _, c := range cases {
		geom := fmt.Sprintf("%dx%d", c.w, c.l)
		if c.h > 1 {
			geom = fmt.Sprintf("%dx%dx%d", c.w, c.l, c.h)
		}
		name := fmt.Sprintf("alloc/%s/%s/%s", geom, c.topology, c.strategy)
		out = append(out, record(name, c.jobs, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := sim.DefaultConfig()
				sc.MeshW, sc.MeshL, sc.MeshH = c.w, c.l, c.h
				sc.Strategy = c.strategy
				sc.MaxCompleted = c.jobs
				sc.WarmupJobs = c.jobs / 10
				sc.Network.Topology = c.topology
				src := workload.NewAllocStress3D(stats.NewStream(17), c.w, c.l, c.h, 0.07, 100)
				res, err := sim.Run(sc, src)
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed == 0 {
					b.Fatal("run completed no jobs")
				}
			}
		}))
	}
	return out
}
