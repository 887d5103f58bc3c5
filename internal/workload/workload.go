// Package workload produces the job streams driving the simulation: the
// paper's stochastic model (exponential inter-arrival times with uniform
// or exponential side-length distributions), a trace format
// reader/writer (including an SWF-compatible parser), and a synthetic
// generator reproducing the published statistics of the SDSC Intel
// Paragon trace the paper uses (see ParagonSpec).
package workload

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Job is one parallel job submission.
type Job struct {
	ID      int
	Arrival float64 // submission time, simulation time units
	W, L    int     // requested sub-mesh shape (allocation consumes Size())
	// H is the requested depth on a 3D mesh; zero (every 2D generator)
	// means 1.
	H int
	// Compute is the job's computation demand in time units: the
	// runtime recorded in a trace. It is zero for stochastic jobs,
	// whose residence time is determined entirely by the simulated
	// communication (paper §5: "the execution times of jobs are not
	// simulator inputs").
	Compute float64
	// Messages is the number of packets each allocated processor sends
	// in the job's all-to-all communication phase, exponentially
	// distributed with mean num_mes (paper §5; ProcSimity
	// parameterises the pattern per processor).
	Messages int
}

// Depth returns the requested depth, treating the zero value as 1.
func (j Job) Depth() int {
	if j.H < 1 {
		return 1
	}
	return j.H
}

// Size returns the number of processors the job occupies.
func (j Job) Size() int { return j.W * j.L * j.Depth() }

// ServiceDemand is the a priori service-demand key used by the SSD
// (Shortest-Service-Demand) scheduler: the known compute demand plus
// the job's message volume. For trace jobs the compute term dominates;
// for stochastic jobs the demand is purely communication volume.
func (j Job) ServiceDemand() float64 {
	return j.Compute + float64(j.Messages*j.Size())
}

// Source yields a job stream in nondecreasing arrival order.
type Source interface {
	// Next returns the next job; ok is false when the stream is
	// exhausted (stochastic sources never exhaust).
	Next() (Job, bool)
	// Name identifies the workload in result tables.
	Name() string
}

// SideDist selects the stochastic side-length model of the paper.
type SideDist int

// The side-length distributions: the paper's §5 evaluates UniformSides
// and ExpSides; UniformDecSides and UniformIncSides are the other two
// distributions its §1 lists from the literature (Zhu, JPDC 1992),
// provided for workload ablations.
const (
	// UniformSides draws the width uniformly over [1, W] and the
	// length over [1, L], independently.
	UniformSides SideDist = iota
	// ExpSides draws each side from an exponential distribution with
	// mean half the mesh side, truncated into range.
	ExpSides
	// UniformDecSides favours small sides: the quarters of [1, max]
	// are chosen with probabilities 0.4, 0.3, 0.2, 0.1 and the side is
	// uniform within the chosen quarter.
	UniformDecSides
	// UniformIncSides favours large sides (the reverse weighting).
	UniformIncSides
)

// String names the distribution.
func (d SideDist) String() string {
	switch d {
	case UniformSides:
		return "uniform"
	case ExpSides:
		return "exponential"
	case UniformDecSides:
		return "uniform-decreasing"
	case UniformIncSides:
		return "uniform-increasing"
	default:
		return fmt.Sprintf("SideDist(%d)", int(d))
	}
}

// quarterWeightsDec weights the four quarters of the side range for the
// uniform-decreasing distribution; increasing reverses them.
var quarterWeightsDec = []float64{0.4, 0.3, 0.2, 0.1}

// drawQuartered samples a side in [1, max] from weighted quarters.
func drawQuartered(rng *stats.Stream, max int, increasing bool) int {
	w := quarterWeightsDec
	if increasing {
		w = []float64{0.1, 0.2, 0.3, 0.4}
	}
	q := rng.Choice(w)
	lo := q*max/4 + 1
	hi := (q + 1) * max / 4
	if hi < lo {
		hi = lo
	}
	if hi > max {
		hi = max
	}
	return rng.UniformInt(lo, hi)
}

// Stochastic is the paper's stochastic workload: Poisson arrivals and
// probabilistic request sides (three sides on a 3D mesh).
type Stochastic struct {
	rng    *stats.Stream
	meshW  int
	meshL  int
	meshH  int
	dist   SideDist
	mean   float64 // mean inter-arrival time
	numMes float64 // mean per-processor message count
	next   int
	clock  float64
}

// NewStochastic builds the stochastic source for a 2D mesh. arrivalRate
// is the system load in jobs per time unit (the paper's independent
// variable, the inverse of mean inter-arrival time); numMes is the
// mean message count (the paper uses 5).
func NewStochastic(rng *stats.Stream, meshW, meshL int, dist SideDist, arrivalRate, numMes float64) *Stochastic {
	return NewStochastic3D(rng, meshW, meshL, 1, dist, arrivalRate, numMes)
}

// NewStochastic3D builds the stochastic source for a meshW x meshL x
// meshH mesh: the depth side is drawn from the same distribution as
// the planar sides. Depth 1 draws no depth at all, so its random
// stream — and therefore every 2D result — is unchanged.
func NewStochastic3D(rng *stats.Stream, meshW, meshL, meshH int, dist SideDist, arrivalRate, numMes float64) *Stochastic {
	if arrivalRate <= 0 {
		panic("workload: arrival rate must be positive")
	}
	if numMes <= 0 {
		panic("workload: numMes must be positive")
	}
	if meshH < 1 {
		panic("workload: mesh depth must be at least 1")
	}
	return &Stochastic{
		rng:    rng,
		meshW:  meshW,
		meshL:  meshL,
		meshH:  meshH,
		dist:   dist,
		mean:   1 / arrivalRate,
		numMes: numMes,
	}
}

// Name implements Source.
func (s *Stochastic) Name() string {
	return fmt.Sprintf("stochastic-%v", s.dist)
}

// Next implements Source. On a 3D source the depth side is drawn right
// after the planar sides; depth-1 sources draw nothing extra, keeping
// the 2D stream bit-identical.
func (s *Stochastic) Next() (Job, bool) {
	s.clock += s.rng.Exp(s.mean)
	var w, l, h int
	switch s.dist {
	case UniformSides:
		w = s.rng.UniformInt(1, s.meshW)
		l = s.rng.UniformInt(1, s.meshL)
		if s.meshH > 1 {
			h = s.rng.UniformInt(1, s.meshH)
		}
	case ExpSides:
		w = s.rng.ExpIntCapped(float64(s.meshW)/2, s.meshW)
		l = s.rng.ExpIntCapped(float64(s.meshL)/2, s.meshL)
		if s.meshH > 1 {
			h = s.rng.ExpIntCapped(float64(s.meshH)/2, s.meshH)
		}
	case UniformDecSides:
		w = drawQuartered(s.rng, s.meshW, false)
		l = drawQuartered(s.rng, s.meshL, false)
		if s.meshH > 1 {
			h = drawQuartered(s.rng, s.meshH, false)
		}
	case UniformIncSides:
		w = drawQuartered(s.rng, s.meshW, true)
		l = drawQuartered(s.rng, s.meshL, true)
		if s.meshH > 1 {
			h = drawQuartered(s.rng, s.meshH, true)
		}
	default:
		panic(fmt.Sprintf("workload: unknown side distribution %d", int(s.dist)))
	}
	j := Job{
		ID:       s.next,
		Arrival:  s.clock,
		W:        w,
		L:        l,
		H:        h,
		Messages: s.rng.ExpInt(s.numMes),
	}
	s.next++
	return j, true
}

// AllocStress is a communication-free job stream for allocation-path
// studies and benchmarks: Poisson arrivals, uniform request sides up
// to half of each mesh side (the contention regime the paper's
// full-side uniform workload spends its time in), exponential compute
// residence and zero messages. With no packets to simulate, every
// event in a run exercises the scheduler → allocator → occupancy-index
// path, so end-to-end time measures allocation cost alone.
type AllocStress struct {
	rng         *stats.Stream
	meshW       int
	meshL       int
	meshH       int
	mean        float64 // mean inter-arrival time
	computeMean float64
	next        int
	clock       float64
}

// NewAllocStress builds the allocation-stress source for a 2D mesh.
// arrivalRate is jobs per time unit; computeMean is the mean residence
// time.
func NewAllocStress(rng *stats.Stream, meshW, meshL int, arrivalRate, computeMean float64) *AllocStress {
	return NewAllocStress3D(rng, meshW, meshL, 1, arrivalRate, computeMean)
}

// NewAllocStress3D builds the allocation-stress source for a 3D mesh:
// requests gain a depth side up to half the mesh depth. Depth 1 draws
// no depth at all, keeping the 2D stream bit-identical.
func NewAllocStress3D(rng *stats.Stream, meshW, meshL, meshH int, arrivalRate, computeMean float64) *AllocStress {
	if arrivalRate <= 0 {
		panic("workload: arrival rate must be positive")
	}
	if computeMean <= 0 {
		panic("workload: compute mean must be positive")
	}
	if meshH < 1 {
		panic("workload: mesh depth must be at least 1")
	}
	return &AllocStress{
		rng:         rng,
		meshW:       meshW,
		meshL:       meshL,
		meshH:       meshH,
		mean:        1 / arrivalRate,
		computeMean: computeMean,
	}
}

// Name implements Source.
func (s *AllocStress) Name() string { return "alloc-stress" }

// Next implements Source.
func (s *AllocStress) Next() (Job, bool) {
	s.clock += s.rng.Exp(s.mean)
	j := Job{
		ID:      s.next,
		Arrival: s.clock,
		W:       s.rng.UniformInt(1, max(2, s.meshW/2)),
		L:       s.rng.UniformInt(1, max(2, s.meshL/2)),
		Compute: s.rng.Exp(s.computeMean),
	}
	if s.meshH > 1 {
		j.H = s.rng.UniformInt(1, max(2, s.meshH/2))
	}
	s.next++
	return j, true
}

// SliceSource replays a fixed job slice, e.g. a trace.
type SliceSource struct {
	name string
	jobs []Job
	pos  int
}

// NewSliceSource wraps jobs (already in arrival order) as a Source.
func NewSliceSource(name string, jobs []Job) *SliceSource {
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival {
			panic(fmt.Sprintf("workload: job %d arrives before its predecessor", i))
		}
	}
	return &SliceSource{name: name, jobs: jobs}
}

// Name implements Source.
func (s *SliceSource) Name() string { return s.name }

// Next implements Source.
func (s *SliceSource) Next() (Job, bool) {
	if s.pos >= len(s.jobs) {
		return Job{}, false
	}
	j := s.jobs[s.pos]
	s.pos++
	return j, true
}

// Len returns the number of jobs remaining plus consumed.
func (s *SliceSource) Len() int { return len(s.jobs) }

// ScaleArrivals returns a copy of jobs with every arrival time
// multiplied by f — the paper's load control for the real trace
// ("to challenge allocation strategies, we multiply job arrival times
// by a constant factor f"; f < 1 increases load).
func ScaleArrivals(jobs []Job, f float64) []Job {
	if f <= 0 {
		panic("workload: arrival scale factor must be positive")
	}
	out := make([]Job, len(jobs))
	for i, j := range jobs {
		j.Arrival *= f
		out[i] = j
	}
	return out
}

// DeepenTrace redistributes each job's processor count into a cuboid
// request for a meshW x meshL x meshH mesh via the same per-job
// transform the streaming Deepened wrapper applies (deepenJob), so the
// slice and stream views share one draw order. Depth 1 returns the
// jobs unchanged. cmd/tracegen uses this to emit 3D traces from the 2D
// Paragon model.
func DeepenTrace(jobs []Job, meshW, meshL, meshH int, rng *stats.Stream) []Job {
	if meshH <= 1 {
		return jobs
	}
	out := make([]Job, len(jobs))
	for i, j := range jobs {
		out[i] = deepenJob(j, meshW, meshL, meshH, rng)
	}
	return out
}

// MeanInterarrival returns the average gap between consecutive
// arrivals, 0 for fewer than two jobs.
func MeanInterarrival(jobs []Job) float64 {
	if len(jobs) < 2 {
		return 0
	}
	return (jobs[len(jobs)-1].Arrival - jobs[0].Arrival) / float64(len(jobs)-1)
}

// ShapeFor returns the most nearly square request shape w x l with
// w*l >= p fitting a meshW x meshL mesh, minimizing wasted processors
// first and skew second. Trace jobs record processor counts, not
// shapes, so this derives the sub-mesh geometry a trace job requests.
func ShapeFor(p, meshW, meshL int) (w, l int) {
	if p <= 0 || p > meshW*meshL {
		panic(fmt.Sprintf("workload: no shape for %d processors in %dx%d", p, meshW, meshL))
	}
	bestWaste, bestSkew := math.MaxInt, math.MaxInt
	for cw := 1; cw <= meshW; cw++ {
		cl := (p + cw - 1) / cw
		if cl > meshL {
			continue
		}
		waste := cw*cl - p
		skew := cw - cl
		if skew < 0 {
			skew = -skew
		}
		if waste < bestWaste || (waste == bestWaste && skew < bestSkew) {
			bestWaste, bestSkew = waste, skew
			w, l = cw, cl
		}
	}
	return w, l
}
