package core

import (
	"fmt"

	"repro/internal/network"
)

// This file indexes every figure of the paper's evaluation (§5) as a
// runnable experiment, plus the ablation studies listed by Ablations.
//
// Load axes: the real-workload experiments use the paper's own load
// ranges (our simulator's saturation knee for the synthetic Paragon
// trace falls at the same loads as the paper's). The stochastic axes
// are rescaled to our simulator's saturation points — the event-driven
// wormhole substrate saturates at different absolute loads than
// ProcSimity's flit-level engine — preserving the paper's axis shape:
// the range starts in the uncongested region and ends just past the
// knee (see EXPERIMENTS.md).

// Experiment describes one reproducible figure or ablation.
type Experiment struct {
	ID       string   // e.g. "fig02"
	Title    string   // paper caption, abbreviated
	Metric   Metric   // which performance parameter the figure plots
	Workload Workload // which job stream drives it
	Loads    []float64
	Combos   []Combo

	// Topology selects the interconnect fabric: the zero value is the
	// paper's 2D mesh; TorusTopology adds wrap-around links and lets
	// the allocators place sub-meshes across the seams, so experiments
	// can compare contiguity on both fabrics.
	Topology network.Topology

	// MeshW, MeshL and MeshH override the simulation geometry. Zero
	// values keep the paper's 16 x 22 (depth 1); a MeshH above 1 runs
	// the experiment on a 3D mesh — cuboid requests, volumetric
	// allocation, XYZ routing.
	MeshW, MeshL, MeshH int

	// Jobs is the completed-job count per run (paper: 1000); Warmup
	// jobs are excluded from the statistics.
	Jobs   int
	Warmup int
}

// Geometry renders the experiment's mesh dimensions per axis ("16x22"
// or "16x16x4"), defaulting unset axes to the paper's values — the
// per-dimension header the result tables carry so 2D and 3D series
// stay distinguishable side by side.
func (e Experiment) Geometry() string {
	w, l, h := e.MeshW, e.MeshL, e.MeshH
	if w == 0 {
		w = 16
	}
	if l == 0 {
		l = 22
	}
	if h <= 1 {
		return fmt.Sprintf("%dx%d", w, l)
	}
	return fmt.Sprintf("%dx%dx%d", w, l, h)
}

func loadRange(lo, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// Axis constants (see the note at the top of the file).
var (
	realTurnLoads = loadRange(0.0005, 0.0005, 8) // 0.0005 .. 0.004 (paper Fig. 2 axis)
	realWideLoads = loadRange(0.0025, 0.0025, 8) // 0.0025 .. 0.02 (paper Figs. 5/11/14 axis)
	uniformLoads  = loadRange(0.0005, 0.0005, 8) // knee ~0.0035
	expLoads      = loadRange(0.001, 0.001, 8)   // knee ~0.006
	realHeavyLoad = []float64{0.02}              // Figs. 8: queue fills early
	unifHeavyLoad = []float64{0.006}
	expHeavyLoad  = []float64{0.012}
)

// Figures returns the fifteen paper experiments, Figs. 2-16, in order.
func Figures() []Experiment {
	mk := func(id, title string, m Metric, w Workload, loads []float64) Experiment {
		return Experiment{
			ID: id, Title: title, Metric: m, Workload: w,
			Loads: loads, Combos: PaperCombos(), Jobs: 1000, Warmup: 100,
		}
	}
	return []Experiment{
		mk("fig02", "Turnaround vs load, all-to-all, real workload", Turnaround, RealTrace, realTurnLoads),
		mk("fig03", "Turnaround vs load, all-to-all, stochastic uniform", Turnaround, StochasticUniform, uniformLoads),
		mk("fig04", "Turnaround vs load, all-to-all, stochastic exponential", Turnaround, StochasticExp, expLoads),
		mk("fig05", "Service time vs load, all-to-all, real workload", Service, RealTrace, realWideLoads),
		mk("fig06", "Service time vs load, all-to-all, stochastic uniform", Service, StochasticUniform, uniformLoads),
		mk("fig07", "Service time vs load, all-to-all, stochastic exponential", Service, StochasticExp, expLoads),
		mk("fig08", "Utilization at heavy load, real workload", Utilization, RealTrace, realHeavyLoad),
		mk("fig09", "Utilization at heavy load, stochastic uniform", Utilization, StochasticUniform, unifHeavyLoad),
		mk("fig10", "Utilization at heavy load, stochastic exponential", Utilization, StochasticExp, expHeavyLoad),
		mk("fig11", "Packet blocking time vs load, real workload", Blocking, RealTrace, realWideLoads),
		mk("fig12", "Packet blocking time vs load, stochastic uniform", Blocking, StochasticUniform, uniformLoads),
		mk("fig13", "Packet blocking time vs load, stochastic exponential", Blocking, StochasticExp, expLoads),
		mk("fig14", "Packet latency vs load, real workload", Latency, RealTrace, realWideLoads),
		mk("fig15", "Packet latency vs load, stochastic uniform", Latency, StochasticUniform, uniformLoads),
		mk("fig16", "Packet latency vs load, stochastic exponential", Latency, StochasticExp, expLoads),
	}
}

// FigureByID returns the experiment with the given ID (e.g. "fig07").
func FigureByID(id string) (Experiment, bool) {
	for _, e := range append(Figures(), Ablations()...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Ablations returns the design-choice studies: they are not paper
// figures but probe the knobs the paper's strategies embody.
func Ablations() []Experiment {
	midReal := []float64{0.005, 0.01}
	midUnif := []float64{0.002, 0.003}
	combos := func(pairs ...Combo) []Combo { return pairs }
	return []Experiment{
		{
			ID:     "ablA1",
			Title:  "Paging indexing schemes (row-major vs snake vs shuffled)",
			Metric: Latency, Workload: RealTrace, Loads: midReal,
			Combos: combos(
				Combo{"Paging(0)", "FCFS"},
				Combo{"Paging(0,snake)", "FCFS"},
				Combo{"Paging(0,shuffled)", "FCFS"},
				Combo{"Paging(0,shuffled-snake)", "FCFS"},
			),
			Jobs: 500, Warmup: 50,
		},
		{
			ID:     "ablA2",
			Title:  "Paging page size: internal fragmentation vs contiguity",
			Metric: Turnaround, Workload: StochasticUniform, Loads: midUnif,
			Combos: combos(
				Combo{"Paging(0)", "FCFS"},
				Combo{"Paging(1)", "FCFS"},
			),
			Jobs: 500, Warmup: 50,
		},
		{
			ID:     "ablA3",
			Title:  "GABL contiguity benefit vs random scatter",
			Metric: Latency, Workload: RealTrace, Loads: midReal,
			Combos: combos(
				Combo{"GABL", "FCFS"},
				Combo{"GABL(no-rotate)", "FCFS"},
				Combo{"Random", "FCFS"},
			),
			Jobs: 500, Warmup: 50,
		},
		{
			ID:     "ablA4",
			Title:  "Scheduler spectrum: FCFS vs SSD vs SJF vs LJF",
			Metric: Turnaround, Workload: RealTrace, Loads: midReal,
			Combos: combos(
				Combo{"GABL", "FCFS"},
				Combo{"GABL", "SSD"},
				Combo{"GABL", "SJF"},
				Combo{"GABL", "LJF"},
			),
			Jobs: 500, Warmup: 50,
		},
		{
			ID:     "ablA5",
			Title:  "Contiguous baselines: external fragmentation cost",
			Metric: Turnaround, Workload: StochasticUniform, Loads: midUnif,
			Combos: combos(
				Combo{"GABL", "FCFS"},
				Combo{"FirstFit", "FCFS"},
				Combo{"BestFit", "FCFS"},
			),
			Jobs: 500, Warmup: 50,
		},
		// The paper's stated future work (§6): the same strategies on a
		// torus. Wrap-around placement widens every contiguous search's
		// candidate space (less external fragmentation) and the wrap
		// links shorten scattered jobs' paths; run ablA6 next to ablA3
		// or ablA5 to compare fabrics cell by cell.
		{
			ID:     "ablA6",
			Title:  "Torus fabric: wrap-around placement and routing",
			Metric: Turnaround, Workload: StochasticUniform, Loads: midUnif,
			Topology: network.TorusTopology,
			Combos: combos(
				Combo{"GABL", "FCFS"},
				Combo{"FirstFit", "FCFS"},
				Combo{"BestFit", "FCFS"},
			),
			Jobs: 500, Warmup: 50,
		},
		// The paper targets 3D mesh-connected multicomputers; this study
		// runs the strategies on an actual 3D mesh (16x16x4, comparable
		// processor count to a 32x32 plane) with cuboid requests and XYZ
		// routing. MBS is absent: its buddy quartets are inherently
		// planar (alloc.Supports3D).
		{
			ID:     "ablA7",
			Title:  "Third dimension: cuboid allocation on a 16x16x4 mesh",
			Metric: Turnaround, Workload: StochasticUniform, Loads: midUnif,
			MeshW: 16, MeshL: 16, MeshH: 4,
			Combos: combos(
				Combo{"GABL", "FCFS"},
				Combo{"FirstFit", "FCFS"},
				Combo{"BestFit", "FCFS"},
				Combo{"Paging(0)", "FCFS"},
			),
			Jobs: 500, Warmup: 50,
		},
	}
}
