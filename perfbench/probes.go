package main

import (
	"bytes"
	"flag"
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/des"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// probe is a fixed-input timing of one public call, isolating the layer
// one workload leans on. Its inputs never depend on the run's seed.
type probe struct {
	name   string
	allocs string // when set, also report allocs/op under this name
	fn     func(b *testing.B)
}

var probes = []probe{
	{name: "des.hold_ns.d64", fn: holdProbe(64)},
	{name: "des.hold_ns.d4096", fn: holdProbe(4096)},
	{name: "network.send_deliver_ns", allocs: "network.send_deliver_allocs", fn: sendDeliverProbe},
	{name: "alloc.cycle_ns.GABL", fn: allocCycleProbe("GABL")},
	{name: "alloc.cycle_ns.Paging0", fn: allocCycleProbe("Paging(0)")},
	{name: "alloc.cycle_ns.MBS", fn: allocCycleProbe("MBS")},
	{name: "sched.push_pop_ns.SSD", fn: ssdProbe},
	{name: "workload.next_ns.trace", fn: traceNextProbe},
	{name: "workload.next_ns.alloc_stress", fn: allocStressNextProbe},
	{name: "mesh.best_fit_ns.512", fn: searchProbe(func() *mesh.Mesh { return mesh.New(512, 512) },
		func(m *mesh.Mesh) bool { _, ok := m.BestFit(16, 16); return ok })},
	{name: "mesh.best_fit_ns.torus256", fn: searchProbe(func() *mesh.Mesh { return mesh.NewTorus(256, 256) },
		func(m *mesh.Mesh) bool { _, ok := m.BestFit(16, 16); return ok })},
	{name: "mesh.largest_free_ns.1024", fn: searchProbe(func() *mesh.Mesh { return mesh.New(1024, 1024) },
		func(m *mesh.Mesh) bool { _, ok := m.LargestFree(512, 512, 1<<16); return ok })},
	{name: "mesh.largest_free3d_ns.64x64x16", fn: searchProbe(func() *mesh.Mesh { return mesh.New3D(64, 64, 16) },
		func(m *mesh.Mesh) bool { _, ok := m.LargestFree3D(32, 32, 8, 1<<13); return ok })},
	{name: "mesh.first_fit_ns.64", fn: searchProbe(func() *mesh.Mesh { return mesh.New(64, 64) },
		func(m *mesh.Mesh) bool { _, ok := m.FirstFit(6, 6); return ok })},
	{name: "mesh.mutate_ns.64", fn: mutateProbe},
	{name: "mesh.fail_recover_ns.64", fn: failRecoverProbe},
}

// probeBenchtime keeps the whole probe set to a few seconds.
const probeBenchtime = "100ms"

// runProbes times every probe; a probe that fails is an error.
func runProbes() (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", probeBenchtime); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, p := range probes {
		r := testing.Benchmark(p.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("probe %s failed", p.name)
		}
		out[p.name] = float64(r.T.Nanoseconds()) / float64(r.N)
		if p.allocs != "" {
			out[p.allocs] = float64(r.MemAllocs) / float64(r.N)
		}
	}
	return out, nil
}

// holdProbe is the classic hold model: with depth events pending, each
// op pops the earliest and schedules its successor a random delay on.
func holdProbe(depth int) func(b *testing.B) {
	return func(b *testing.B) {
		e := des.NewEngine()
		rng := stats.NewStream(3)
		delays := make([]float64, 1024)
		for i := range delays {
			delays[i] = rng.Exp(float64(depth))
		}
		k := 0
		var hold des.EventFunc
		hold = func(any) {
			e.ScheduleEvent(delays[k&1023], hold, nil)
			k++
		}
		for i := 0; i < depth; i++ {
			e.ScheduleEvent(delays[i&1023], hold, nil)
		}
		for i := 0; i < depth; i++ {
			e.Step()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	}
}

// sendDeliverProbe sends one corner-to-corner packet across an idle
// 16x22 fabric and runs the engine until it is delivered.
func sendDeliverProbe(b *testing.B) {
	eng := des.NewEngine()
	net := network.New(eng, paperW, paperL, network.DefaultConfig())
	src, dst := mesh.Coord{}, mesh.Coord{X: paperW - 1, Y: paperL - 1}
	delivered := 0
	onDelivered := func(*network.Packet) { delivered++ }
	send := func() {
		net.Send(src, dst, onDelivered)
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	send() // the first send sizes the route scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	if delivered != b.N+1 {
		b.Fatalf("delivered %d of %d packets", delivered, b.N+1)
	}
}

// allocCycleProbe allocates a fixed stream of paper-sized requests on
// the 16x22 mesh, releasing the oldest allocation whenever a request
// does not fit; one op is one successful Allocate and the Releases it
// needed.
func allocCycleProbe(strategy string) func(b *testing.B) {
	return func(b *testing.B) {
		a, err := alloc.ByName(strategy, mesh.New(paperW, paperL), nil)
		if err != nil {
			b.Fatal(err)
		}
		rng := stats.NewStream(5)
		reqs := make([]alloc.Request, 256)
		for i := range reqs {
			reqs[i] = alloc.Request{W: rng.UniformInt(1, paperW), L: rng.UniformInt(1, paperL)}
		}
		var live []alloc.Allocation
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for {
				al, ok := a.Allocate(reqs[i%len(reqs)])
				if ok {
					live = append(live, al)
					break
				}
				a.Release(live[0])
				live = append(live[:0], live[1:]...)
			}
		}
	}
}

// ssdProbe pushes and pops one job on a 64-deep SSD queue.
func ssdProbe(b *testing.B) {
	type job struct{ demand float64 }
	q := sched.NewSSD(func(j *job) float64 { return j.demand })
	rng := stats.NewStream(7)
	jobs := make([]*job, 1024)
	for i := range jobs {
		jobs[i] = &job{demand: rng.Exp(500)}
	}
	for i := 0; i < 64; i++ {
		q.Push(jobs[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(jobs[i&1023])
		q.Pop()
	}
}

// traceNextProbe draws jobs from the chunked trace reader over an
// in-memory Paragon-model trace, restarting it when it runs out.
func traceNextProbe(b *testing.B) {
	spec := workload.DefaultParagon()
	spec.Jobs = 20000
	var buf bytes.Buffer
	if _, err := workload.WriteTraceStream(&buf, workload.NewParagonSource(spec, 5), false); err != nil {
		b.Fatal(err)
	}
	rng := stats.NewStream(13)
	rd := bytes.NewReader(buf.Bytes())
	src := workload.NewTraceSource(rd, "probe", paperW, paperL, numMes, rng, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := src.Next(); !ok {
			if err := src.Err(); err != nil {
				b.Fatal(err)
			}
			rd.Reset(buf.Bytes())
			src = workload.NewTraceSource(rd, "probe", paperW, paperL, numMes, rng, 0)
		}
	}
}

func allocStressNextProbe(b *testing.B) {
	src := workload.NewAllocStress(stats.NewStream(11), 64, 64, 0.07, 100)
	for i := 0; i < b.N; i++ {
		src.Next()
	}
}

// fragment fills about half of m with random free-standing blocks, the
// layout a busy allocator leaves behind, from a fixed seed.
func fragment(m *mesh.Mesh) *mesh.Mesh {
	rng := stats.NewStream(9)
	maxW, maxL, maxH := max(1, m.W()/8), max(1, m.L()/8), max(1, m.H()/2)
	for tries := 0; 2*m.BusyCount() < m.Size() && tries < 1<<20; tries++ {
		w, l, h := rng.UniformInt(1, maxW), rng.UniformInt(1, maxL), rng.UniformInt(1, maxH)
		s := mesh.SubAt3D(rng.Intn(m.W()-w+1), rng.Intn(m.L()-l+1), rng.Intn(m.H()-h+1), w, l, h)
		if m.SubFree(s) {
			if err := m.AllocateSub(s); err != nil {
				panic(err)
			}
		}
	}
	return m
}

// searchProbe times one search call on a fragmented mesh.
func searchProbe(build func() *mesh.Mesh, search func(*mesh.Mesh) bool) func(b *testing.B) {
	return func(b *testing.B) {
		m := fragment(build())
		if !search(m) {
			b.Fatal("search found nothing on the fragmented mesh")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search(m)
		}
	}
}

// mutateProbe releases and re-allocates 4x4 blocks of a half-density
// tiling of a 64x64 mesh: the mutation path with no search.
func mutateProbe(b *testing.B) {
	m := mesh.New(64, 64)
	var blocks []mesh.Submesh
	for y := 0; y+4 <= 64; y += 8 {
		for x := 0; x+4 <= 64; x += 8 {
			s := mesh.SubAt(x, y, 4, 4)
			if err := m.AllocateSub(s); err != nil {
				b.Fatal(err)
			}
			blocks = append(blocks, s)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := blocks[i%len(blocks)]
		if err := m.ReleaseSub(s); err != nil {
			b.Fatal(err)
		}
		if err := m.AllocateSub(s); err != nil {
			b.Fatal(err)
		}
	}
}

// failRecoverProbe fails and recovers one free processor of a
// fragmented 64x64 mesh.
func failRecoverProbe(b *testing.B) {
	m := fragment(mesh.New(64, 64))
	c := m.FreeNodes()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fail(c); err != nil {
			b.Fatal(err)
		}
		if err := m.Recover(c); err != nil {
			b.Fatal(err)
		}
	}
}
