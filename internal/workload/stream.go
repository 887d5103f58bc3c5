package workload

// This file is the streaming half of the workload engine: pull-based
// sources that draw each job lazily inside Next, plus the composable
// wrappers (scaling, shifting, time compression, diurnal modulation,
// 3D deepening) the CLIs stack on top. The contract, shared with the materialized helpers that
// now drain these sources, is documented in docs/occupancy-index.md §12:
//
//   - a source holds O(1) memory however many jobs it yields;
//   - for one seed, the per-job rng draw order is identical whether the
//     stream is consumed lazily or collected into a slice first, so
//     streaming and materialized runs are bit-identical;
//   - Next never allocates in steady state (pinned by AllocsPerRun
//     tests and the stream/* bench gate).
//
// Sources whose stream can end abnormally (the chunked trace reader)
// additionally implement Err; SourceErr recovers it through any wrapper
// stack.

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// errSource is implemented by sources whose stream can end on an error
// rather than clean exhaustion.
type errSource interface {
	Err() error
}

// SourceErr returns the error that ended the stream, if the source (or
// the source a wrapper ultimately reads from) tracks one. A nil return
// means clean exhaustion — or a source that cannot fail.
func SourceErr(src Source) error {
	if e, ok := src.(errSource); ok {
		return e.Err()
	}
	return nil
}

// Collect materializes a stream into a slice: up to max jobs, or the
// whole stream when max <= 0. It is the bridge from the streaming
// engine back to the slice-based helpers — the jobs are exactly the
// ones the stream would have yielded, in the same order, because
// collecting IS consuming the stream.
func Collect(src Source, max int) []Job {
	var out []Job
	for max <= 0 || len(out) < max {
		j, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, j)
	}
	return out
}

// ParagonSource streams the synthetic SDSC Paragon trace job by job:
// the same draws, in the same order, as the materialized
// SyntheticParagon (which now collects this source), but with O(1)
// memory however long the trace. The stream exhausts after spec.Jobs
// jobs; set spec.Jobs to a huge value for an effectively unbounded
// stream.
type ParagonSource struct {
	spec      ParagonSpec
	rng       *stats.Stream
	burstMean float64
	lullMean  float64
	clock     float64
	next      int
}

// NewParagonSource builds the streaming synthetic-Paragon generator.
// It panics on an invalid spec, exactly as SyntheticParagon does.
func NewParagonSource(spec ParagonSpec, seed int64) *ParagonSource {
	if spec.Jobs <= 0 || spec.MeshW <= 0 || spec.MeshL <= 0 {
		panic("workload: invalid Paragon spec")
	}
	// Solve the lull mean so the mixture hits MeanInterarrival.
	burstMean := spec.MeanInterarrival * burstMeanFrac
	lullMean := (spec.MeanInterarrival - burstFraction*burstMean) / (1 - burstFraction)
	return &ParagonSource{
		spec:      spec,
		rng:       stats.NewStream(seed),
		burstMean: burstMean,
		lullMean:  lullMean,
	}
}

// Name implements Source. The label matches the paper's "real"
// workload, which this model substitutes for (see ParagonSpec).
func (s *ParagonSource) Name() string { return "real" }

// Next implements Source: one job's draws — inter-arrival, size,
// runtime, message count — happen here and nowhere earlier.
func (s *ParagonSource) Next() (Job, bool) {
	if s.next >= s.spec.Jobs {
		return Job{}, false
	}
	s.clock += s.rng.HyperExp(burstFraction, s.burstMean, s.lullMean)
	p := paragonSize(s.rng, s.spec.MeshW*s.spec.MeshL)
	w, l := ShapeFor(p, s.spec.MeshW, s.spec.MeshL)
	j := Job{
		ID:       s.next,
		Arrival:  s.clock,
		W:        w,
		L:        l,
		Compute:  paragonRuntime(s.rng),
		Messages: s.rng.ExpInt(s.spec.NumMes),
	}
	s.next++
	return j, true
}

// ParagonMeanInterarrival returns the mean inter-arrival time of the
// synthetic trace the spec and seed generate — the quantity load
// scaling divides by — in one O(1)-memory pass over the draws. It is
// bit-identical to MeanInterarrival(SyntheticParagon(spec, seed)):
// both reduce to (last-first)/(n-1) over the same clock accumulation.
func ParagonMeanInterarrival(spec ParagonSpec, seed int64) float64 {
	if spec.Jobs < 2 {
		return 0
	}
	src := NewParagonSource(spec, seed)
	first, ok := src.Next()
	if !ok {
		return 0
	}
	last := first
	n := 1
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		last = j
		n++
	}
	if n < 2 {
		return 0
	}
	return (last.Arrival - first.Arrival) / float64(n-1)
}

// Scaled multiplies every arrival time by a constant factor — the
// paper's load control for trace workloads ("we multiply job arrival
// times by a constant factor f"; f < 1 increases load) — as a
// streaming wrapper. It applies the same per-job operation as
// ScaleArrivals, so a scaled stream is bit-identical to scaling the
// collected slice.
type Scaled struct {
	src Source
	f   float64
}

// NewScaled wraps src, multiplying arrivals by f. It panics on a
// non-positive factor, as ScaleArrivals does.
func NewScaled(src Source, f float64) *Scaled {
	if f <= 0 {
		panic("workload: arrival scale factor must be positive")
	}
	return &Scaled{src: src, f: f}
}

// Name implements Source.
func (s *Scaled) Name() string { return s.src.Name() }

// Err forwards the wrapped source's stream error, if any.
func (s *Scaled) Err() error { return SourceErr(s.src) }

// Next implements Source.
func (s *Scaled) Next() (Job, bool) {
	j, ok := s.src.Next()
	if !ok {
		return Job{}, false
	}
	j.Arrival *= s.f
	return j, true
}

// Shifted offsets every arrival by a constant — the warm-start wrapper
// behind meshsim's -start-time: the whole workload plays out on a
// clock that begins at the offset instead of zero.
type Shifted struct {
	src Source
	dt  float64
}

// NewShifted wraps src, adding dt to every arrival. dt must be
// nonnegative (a negative shift could move arrivals before time zero).
func NewShifted(src Source, dt float64) *Shifted {
	if dt < 0 {
		panic("workload: arrival shift must be nonnegative")
	}
	return &Shifted{src: src, dt: dt}
}

// Name implements Source.
func (s *Shifted) Name() string { return s.src.Name() }

// Err forwards the wrapped source's stream error, if any.
func (s *Shifted) Err() error { return SourceErr(s.src) }

// Next implements Source.
func (s *Shifted) Next() (Job, bool) {
	j, ok := s.src.Next()
	if !ok {
		return Job{}, false
	}
	j.Arrival += s.dt
	return j, true
}

// Compressed divides every arrival AND compute demand by a constant
// time-scale factor: the time-compression mode (meshsim -time-scale)
// that turns a week-long trace horizon into a week/scale simulation.
// Because arrivals and compute shrink together, relative load — and
// therefore utilization, queue growth and every ratio of workload
// times — is preserved exactly for communication-free workloads; only
// the network's delays (router cycles, physical constants) do not
// scale, so communication-heavy runs are compressed approximately, not
// exactly.
type Compressed struct {
	src   Source
	scale float64
}

// NewCompressed wraps src, dividing arrivals and compute demands by
// scale. Scale 1 is the identity; it panics on a non-positive scale.
func NewCompressed(src Source, scale float64) *Compressed {
	if scale <= 0 {
		panic("workload: time scale must be positive")
	}
	return &Compressed{src: src, scale: scale}
}

// Name implements Source.
func (s *Compressed) Name() string { return s.src.Name() }

// Err forwards the wrapped source's stream error, if any.
func (s *Compressed) Err() error { return SourceErr(s.src) }

// Next implements Source.
func (s *Compressed) Next() (Job, bool) {
	j, ok := s.src.Next()
	if !ok {
		return Job{}, false
	}
	j.Arrival /= s.scale
	j.Compute /= s.scale
	return j, true
}

// Diurnal modulates the stream's arrival rate with a sinusoidal
// day/night cycle of the given period: the instantaneous rate becomes
// λ(t) = λ₀·(1 + a·sin(2πt/P)), so arrivals cluster in the "day" half
// of each period and thin out in the "night" half while the mean rate
// over a whole period is unchanged. The modulation is a deterministic
// time warp — an arrival at unmodulated time T is emitted at
// t = Λ⁻¹(T), where Λ(t) = t + (aP/2π)(1 − cos(2πt/P)) is the
// integrated rate — so it composes with every other wrapper, draws no
// randomness, and preserves the nondecreasing-arrival contract.
type Diurnal struct {
	src    Source
	period float64
	amp    float64
	last   float64
}

// NewDiurnal wraps src with a sinusoidal rate cycle of the given
// period and relative amplitude a in [0, 1): amplitude 0 is the
// identity, amplitudes approaching 1 nearly silence the night troughs.
// It panics on a non-positive period or an amplitude outside [0, 1) —
// a ≥ 1 would drive the instantaneous rate negative.
func NewDiurnal(src Source, period, amplitude float64) *Diurnal {
	if period <= 0 {
		panic("workload: diurnal period must be positive")
	}
	if amplitude < 0 || amplitude >= 1 {
		panic("workload: diurnal amplitude must be in [0, 1)")
	}
	return &Diurnal{src: src, period: period, amp: amplitude}
}

// Name implements Source.
func (s *Diurnal) Name() string { return s.src.Name() }

// Err forwards the wrapped source's stream error, if any.
func (s *Diurnal) Err() error { return SourceErr(s.src) }

// warp solves Λ(t) = T by Newton iteration. Λ is smooth and strictly
// increasing (Λ' = 1 + a·sin ≥ 1 − a > 0), so the iteration converges
// in a handful of steps from t = T; Λ(t) − t is bounded by aP/π, so
// the start is never far off.
func (s *Diurnal) warp(T float64) float64 {
	w := 2 * math.Pi / s.period
	k := s.amp / w
	t := T
	for i := 0; i < 64; i++ {
		f := t + k*(1-math.Cos(w*t)) - T
		if math.Abs(f) <= 1e-9*(1+math.Abs(T)) {
			break
		}
		t -= f / (1 + s.amp*math.Sin(w*t))
	}
	return t
}

// Next implements Source. The warp is monotone, but its Newton
// approximation could wobble by an ulp on near-equal arrivals, so the
// emitted time is clamped to never run backwards.
func (s *Diurnal) Next() (Job, bool) {
	j, ok := s.src.Next()
	if !ok {
		return Job{}, false
	}
	if s.amp == 0 {
		return j, true
	}
	t := s.warp(j.Arrival)
	if t < s.last {
		t = s.last
	}
	s.last = t
	j.Arrival = t
	return j, true
}

// Deepened redistributes each job's processor count into a cuboid
// request for a 3D mesh, as a streaming wrapper: the per-job depth
// draw happens in Next, in stream order, so deepening a stream is
// bit-identical to DeepenTrace over the collected slice. Depth 1
// passes jobs through untouched and draws nothing.
type Deepened struct {
	src          Source
	meshW, meshL int
	meshH        int
	rng          *stats.Stream
}

// NewDeepened wraps src for a meshW x meshL x meshH mesh.
func NewDeepened(src Source, meshW, meshL, meshH int, rng *stats.Stream) *Deepened {
	if meshH < 1 {
		panic(fmt.Sprintf("workload: invalid deepening depth %d", meshH))
	}
	return &Deepened{src: src, meshW: meshW, meshL: meshL, meshH: meshH, rng: rng}
}

// Name implements Source.
func (s *Deepened) Name() string { return s.src.Name() }

// Err forwards the wrapped source's stream error, if any.
func (s *Deepened) Err() error { return SourceErr(s.src) }

// Next implements Source.
func (s *Deepened) Next() (Job, bool) {
	j, ok := s.src.Next()
	if !ok {
		return Job{}, false
	}
	if s.meshH <= 1 {
		return j, true
	}
	return deepenJob(j, s.meshW, s.meshL, s.meshH, s.rng), true
}

// deepenJob is the shared per-job reshaping: a depth is drawn
// uniformly (raised just enough when the per-plane remainder would not
// fit the plane) and the per-plane processors are reshaped with
// ShapeFor. Both DeepenTrace and Deepened route through it, so the
// draw order per job is one and the same.
func deepenJob(j Job, meshW, meshL, meshH int, rng *stats.Stream) Job {
	p := j.Size()
	h := rng.UniformInt(1, meshH)
	if min := (p + meshW*meshL - 1) / (meshW * meshL); h < min {
		h = min
	}
	perPlane := (p + h - 1) / h
	w, l := ShapeFor(perPlane, meshW, meshL)
	j.W, j.L = w, l
	j.H = 0
	if h > 1 {
		j.H = h
	}
	return j
}
