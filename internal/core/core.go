// Package core is the paper-reproduction harness: it defines every
// experiment (one per paper figure), runs the load sweeps with
// independent replications and confidence-interval control, and renders
// the resulting series as tables comparable against the paper. This is
// the layer a user of the library drives; the substrates live below it
// (des, stats, mesh, network, alloc, sched, workload, sim).
package core

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Combo is one strategy/scheduler pairing, written the paper's way:
// "GABL(SSD)".
type Combo struct {
	Strategy  string
	Scheduler string
}

// String renders the paper's <allocation>(<scheduling>) notation.
func (c Combo) String() string { return c.Strategy + "(" + c.Scheduler + ")" }

// PaperCombos returns the six pairings of the paper's figures:
// {GABL, Paging(0), MBS} x {FCFS, SSD}.
func PaperCombos() []Combo {
	var out []Combo
	for _, sch := range []string{"FCFS", "SSD"} {
		for _, st := range []string{"GABL", "Paging(0)", "MBS"} {
			out = append(out, Combo{Strategy: st, Scheduler: sch})
		}
	}
	return out
}

// Metric selects which of the paper's five performance parameters an
// experiment reports.
type Metric int

// The paper's performance parameters (§5).
const (
	Turnaround  Metric = iota // average turnaround time (Figs. 2-4)
	Service                   // average service time (Figs. 5-7)
	Utilization               // mean system utilization (Figs. 8-10)
	Blocking                  // average packet blocking time (Figs. 11-13)
	Latency                   // average packet latency (Figs. 14-16)
)

var metricNames = [...]string{
	"turnaround", "service", "utilization", "blocking", "latency",
}

// String names the metric.
func (m Metric) String() string {
	if m < 0 || int(m) >= len(metricNames) {
		return fmt.Sprintf("Metric(%d)", int(m))
	}
	return metricNames[m]
}

// LowerIsBetter reports the metric's polarity for rankings.
func (m Metric) LowerIsBetter() bool { return m != Utilization }

// Workload selects the job stream model of an experiment.
type Workload int

// The paper's three workloads (§5).
const (
	// RealTrace is the SDSC Paragon trace — reproduced synthetically,
	// see workload.SyntheticParagon — with arrival times scaled to the
	// target load.
	RealTrace Workload = iota
	// StochasticUniform draws request sides uniformly over the mesh
	// sides.
	StochasticUniform
	// StochasticExp draws request sides exponentially with mean half
	// the mesh sides.
	StochasticExp
)

var workloadNames = [...]string{"real", "stochastic-uniform", "stochastic-exponential"}

// String names the workload.
func (w Workload) String() string {
	if w < 0 || int(w) >= len(workloadNames) {
		return fmt.Sprintf("Workload(%d)", int(w))
	}
	return workloadNames[w]
}

// NumMes is the paper's mean message count parameter.
const NumMes = 5.0

// Source builds the workload's job source at the given system load
// (jobs per time unit) for replication rep. meshH is the mesh depth
// (0 or 1 selects the paper's 2D model): the stochastic workloads draw
// a depth side on 3D meshes, while the real trace records processor
// counts and keeps its planar shapes (placements still use every
// plane). Every workload streams: jobs are drawn inside Next, so the
// harness holds O(1) workload memory per running cell however long the
// trace (the slice-materializing paragonCache this replaced held every
// job of every (mesh, seed) pair for the process lifetime).
func (w Workload) Source(meshW, meshL, meshH int, load float64, seed int64) workload.Source {
	if !(load > 0) || math.IsInf(load, 1) {
		// NaN fails the comparison too.
		panic("core: load must be positive and finite")
	}
	if meshH < 1 {
		meshH = 1
	}
	switch w {
	case RealTrace:
		spec := workload.DefaultParagon()
		spec.MeshW, spec.MeshL = meshW, meshL
		// The paper: arrival times multiplied by f; the load is the
		// inverse mean inter-arrival time after scaling. The scan pass
		// and the scaling wrapper apply the same float expressions as
		// the materialized MeanInterarrival + ScaleArrivals did, so the
		// streamed jobs are bit-identical to the old slice.
		f := (1 / load) / workload.ParagonMeanInterarrival(spec, seed)
		return workload.NewScaled(workload.NewParagonSource(spec, seed), f)
	case StochasticUniform:
		return workload.NewStochastic3D(stats.NewStream(seed), meshW, meshL, meshH,
			workload.UniformSides, load, NumMes)
	case StochasticExp:
		return workload.NewStochastic3D(stats.NewStream(seed), meshW, meshL, meshH,
			workload.ExpSides, load, NumMes)
	default:
		panic(fmt.Sprintf("core: unknown workload %d", int(w)))
	}
}

// deriveSeed produces a deterministic, well-separated seed for one
// (experiment, combo, load, replication) cell so results are
// reproducible regardless of execution order or parallelism.
func deriveSeed(expID string, c Combo, load float64, rep int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%g|%d", expID, c, load, rep)
	return int64(h.Sum64())
}
