package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options tunes experiment execution without changing what is measured.
type Options struct {
	// Jobs overrides the experiment's completed-job count per run
	// (0 keeps the experiment's own setting). The benchmarks use small
	// values; cmd/figures defaults to the paper's.
	Jobs int
	// Replicator controls the independent-replication stopping rule;
	// the zero value uses stats.DefaultReplicator (95 % CI, 5 % rel.
	// error, 3..30 reps).
	Replicator stats.Replicator
	// MaxReps caps replications (convenience override; 0 keeps the
	// replicator's).
	MaxReps int
	// Parallelism bounds concurrent simulations, one cell per core:
	// values <= 0 or above GOMAXPROCS select GOMAXPROCS. Results are
	// bit-identical at every setting — only wall-clock changes.
	Parallelism int
	// BaseSeed perturbs every derived seed, giving an independent
	// repetition of the whole experiment.
	BaseSeed int64
	// Think forwards sim.Config.ThinkMean (0 = the paper model).
	Think float64
	// Faults injects the fault plan into every run. Each replication
	// gets an independent failure schedule (the plan seed is XORed
	// with the replication's derived seed) from the same plan shape,
	// so the CI stopping rule averages over fault realizations too.
	// Nil runs fault-free and is byte-identical to earlier behavior.
	Faults *sim.FaultPlan
}

// Cell is the replicated measurement of one (combo, load) point.
type Cell struct {
	Combo Combo
	Load  float64
	// Value is the experiment's metric; the CI is over replications.
	Value stats.CI
	// All five metrics' means are retained for cross-checks.
	Means [5]float64
	// Pieces is the mean sub-mesh count per allocation (contiguity).
	Pieces float64
	Reps   int
	// Saturated reports whether any replication hit the queue bound.
	Saturated bool
	// Resilience aggregates (zero when Options.Faults is nil): mean
	// jobs killed per run, mean failures per processor per time unit,
	// and the mean fraction of capacity lost to failed processors.
	Kills       float64
	FailureRate float64
	AvailLoss   float64
	// Link-resilience aggregates (zero unless the plan has a links
	// section): mean link failures, packets lost and detoured routes
	// per run — the end-to-end delivery cost of channel faults.
	LinkFailures float64
	PacketsLost  float64
	Reroutes     float64
}

// Series is one experiment's complete result grid.
type Series struct {
	Experiment Experiment
	Cells      []Cell // ordered by (load, combo) in experiment order
}

// Run executes the experiment: every (combo, load) cell is simulated
// with independent replications until the CI stopping rule is met, in
// parallel across cells, deterministically in the seeds.
func Run(exp Experiment, opt Options) Series {
	jobs := exp.Jobs
	if opt.Jobs > 0 {
		jobs = opt.Jobs
	}
	rep := opt.Replicator
	if rep.MinReps == 0 && rep.MaxReps == 0 && rep.RelTol == 0 {
		rep = stats.DefaultReplicator()
	}
	if opt.MaxReps > 0 {
		rep.MaxReps = opt.MaxReps
		if rep.MinReps > rep.MaxReps {
			rep.MinReps = rep.MaxReps
		}
	}
	par := opt.Parallelism
	if budget := runtime.GOMAXPROCS(0); par <= 0 || par > budget {
		par = budget
	}

	type cellJob struct {
		idx   int
		combo Combo
		load  float64
	}
	var jobsList []cellJob
	for _, load := range exp.Loads {
		for _, c := range exp.Combos {
			jobsList = append(jobsList, cellJob{idx: len(jobsList), combo: c, load: load})
		}
	}
	cells := make([]Cell, len(jobsList))

	var wg sync.WaitGroup
	sem := make(chan struct{}, par)
	for _, cj := range jobsList {
		cj := cj
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			cells[cj.idx] = runCell(exp, cj.combo, cj.load, jobs, rep, opt)
		}()
	}
	wg.Wait()
	return Series{Experiment: exp, Cells: cells}
}

// runCell replicates one (combo, load) simulation point.
func runCell(exp Experiment, c Combo, load float64, jobs int, rep stats.Replicator, opt Options) Cell {
	cell := Cell{Combo: c, Load: load}
	var all [5]stats.Accumulator
	var pieces, kills, failRate, availLoss stats.Accumulator
	var linkFails, pktLost, reroutes stats.Accumulator
	cis, n := rep.Run(func(r int) []float64 {
		seed := deriveSeed(exp.ID, c, load, r) ^ opt.BaseSeed
		cfg := sim.DefaultConfig()
		cfg.Strategy = c.Strategy
		cfg.Scheduler = c.Scheduler
		cfg.Network.Topology = exp.Topology
		if exp.MeshW > 0 {
			cfg.MeshW = exp.MeshW
		}
		if exp.MeshL > 0 {
			cfg.MeshL = exp.MeshL
		}
		if exp.MeshH > 0 {
			cfg.MeshH = exp.MeshH
		}
		cfg.MaxCompleted = jobs
		cfg.WarmupJobs = exp.Warmup
		cfg.MaxQueued = 4 * jobs
		cfg.ThinkMean = opt.Think
		cfg.Seed = seed
		if opt.Faults != nil {
			plan := *opt.Faults
			plan.Seed ^= seed
			cfg.Faults = &plan
		}
		res, err := sim.Run(cfg, exp.Workload.Source(cfg.MeshW, cfg.MeshL, cfg.MeshH, load, seed))
		if err != nil {
			panic(fmt.Sprintf("core: %s %s load %g: %v", exp.ID, c, load, err))
		}
		if res.Saturated {
			cell.Saturated = true
		}
		vals := [5]float64{
			res.MeanTurnaround, res.MeanService, res.Utilization,
			res.MeanBlocking, res.MeanLatency,
		}
		for i, v := range vals {
			all[i].Add(v)
		}
		pieces.Add(res.MeanPieces)
		if opt.Faults != nil {
			kills.Add(float64(res.JobsKilled))
			failRate.Add(res.FailureRate)
			availLoss.Add(res.AvailLoss)
			linkFails.Add(float64(res.LinkFailures))
			pktLost.Add(float64(res.PacketsLost))
			reroutes.Add(float64(res.Reroutes))
		}
		return []float64{vals[exp.Metric]}
	})
	cell.Value = cis[0]
	cell.Reps = n
	for i := range cell.Means {
		cell.Means[i] = all[i].Mean()
	}
	cell.Pieces = pieces.Mean()
	if opt.Faults != nil {
		cell.Kills = kills.Mean()
		cell.FailureRate = failRate.Mean()
		cell.AvailLoss = availLoss.Mean()
		cell.LinkFailures = linkFails.Mean()
		cell.PacketsLost = pktLost.Mean()
		cell.Reroutes = reroutes.Mean()
	}
	return cell
}

// At returns the cell for the given combo and load.
func (s Series) At(c Combo, load float64) (Cell, bool) {
	for _, cell := range s.Cells {
		if cell.Combo == c && cell.Load == load {
			return cell, true
		}
	}
	return Cell{}, false
}

// Ranking orders the combos best-to-worst by the experiment's metric at
// the given load (the paper's claims are about these orderings).
func (s Series) Ranking(load float64) []Combo {
	type kv struct {
		c Combo
		v float64
	}
	var list []kv
	for _, cell := range s.Cells {
		if cell.Load == load {
			list = append(list, kv{cell.Combo, cell.Value.Mean})
		}
	}
	sort.SliceStable(list, func(i, j int) bool {
		if s.Experiment.Metric.LowerIsBetter() {
			return list[i].v < list[j].v
		}
		return list[i].v > list[j].v
	})
	out := make([]Combo, len(list))
	for i, e := range list {
		out[i] = e.c
	}
	return out
}

// RankingLastLoad ranks at the experiment's highest load.
func (s Series) RankingLastLoad() []Combo {
	return s.Ranking(s.Experiment.Loads[len(s.Experiment.Loads)-1])
}

// ToTable converts the series into a plot-ready report.Table: X is the
// load axis, one line per combo.
func (s Series) ToTable() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("%s — %s [%s %s]", s.Experiment.ID, s.Experiment.Title,
			s.Experiment.Geometry(), s.Experiment.Topology),
		XLabel: "load",
		YLabel: s.Experiment.Metric.String(),
		X:      append([]float64(nil), s.Experiment.Loads...),
	}
	for _, c := range s.Experiment.Combos {
		line := report.Line{Label: c.String()}
		for _, load := range s.Experiment.Loads {
			cell, ok := s.At(c, load)
			if !ok {
				line.Y = append(line.Y, 0)
				continue
			}
			line.Y = append(line.Y, cell.Value.Mean)
		}
		t.Series = append(t.Series, line)
	}
	return t
}

// Table renders the series as an aligned text table: one row per load,
// one column per combo, mirroring the paper's figure series. The
// header records the per-dimension geometry and the fabric the cells
// were measured on, so mesh, torus and 3D series stay distinguishable
// side by side.
func (s Series) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s, %s, %s %s)\n", s.Experiment.ID, s.Experiment.Title,
		s.Experiment.Metric, s.Experiment.Workload, s.Experiment.Geometry(), s.Experiment.Topology)
	fmt.Fprintf(&b, "%-10s", "load")
	for _, c := range s.Experiment.Combos {
		fmt.Fprintf(&b, " %16s", c)
	}
	b.WriteByte('\n')
	for _, load := range s.Experiment.Loads {
		fmt.Fprintf(&b, "%-10.4g", load)
		for _, c := range s.Experiment.Combos {
			cell, ok := s.At(c, load)
			if !ok {
				fmt.Fprintf(&b, " %16s", "-")
				continue
			}
			mark := ""
			if cell.Saturated {
				mark = "*"
			}
			fmt.Fprintf(&b, " %15.4g%1s", cell.Value.Mean, mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
