// Command figures regenerates the paper's evaluation: every figure
// (Figs. 2-16) and the ablation studies, printed as text series with
// per-load means per strategy/scheduler pairing.
//
// Full fidelity (the paper's 1000 jobs per run, CI-controlled
// replications) takes tens of minutes; -quick trades precision for a
// fast pass over every experiment.
//
// Examples:
//
//	figures -quick            # all experiments, reduced runs
//	figures -fig fig14        # one figure at full fidelity
//	figures -fig ablA4 -quick # one ablation
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/stats"
)

// writeCSV emits one experiment's series as dir/<id>.csv.
func writeCSV(dir, id string, s core.Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return s.ToTable().WriteCSV(f)
}

func main() {
	var (
		figID   = flag.String("fig", "all", "experiment id (fig02..fig16, ablA1..), or all")
		quick   = flag.Bool("quick", false, "reduced job counts and replications")
		jobs    = flag.Int("jobs", 0, "override completed jobs per run")
		reps    = flag.Int("reps", 0, "override max replications per point")
		seed    = flag.Int64("seed", 0, "base seed perturbation")
		think   = flag.Float64("think", 0, "mean compute gap between sends")
		ablOnly = flag.Bool("ablations", false, "run only the ablation studies")
		plot    = flag.Bool("plot", false, "render ASCII charts alongside tables")
		csvDir  = flag.String("csv", "", "write one CSV per experiment into this directory")
		topo    = flag.String("topology", "", "override interconnect topology for every experiment: mesh, torus")
		depth   = flag.Int("depth", 0, "override mesh depth for every experiment (0 keeps each experiment's own; above 1 runs 3D)")
		faults  = flag.String("faults", "", "fault plan JSON file injected into every run (each replication draws an independent failure schedule)")
	)
	flag.Parse()

	if *think < 0 || math.IsNaN(*think) {
		fmt.Fprintf(os.Stderr, "figures: -think %g is invalid; the mean compute gap must be nonnegative\n", *think)
		os.Exit(1)
	}
	opt := core.Options{BaseSeed: *seed, Think: *think}
	if *faults != "" {
		b, err := os.ReadFile(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		plan := &sim.FaultPlan{}
		if err := json.Unmarshal(b, plan); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", *faults, err)
			os.Exit(1)
		}
		opt.Faults = plan
	}
	if *quick {
		opt.Jobs = 200
		opt.Replicator = stats.Replicator{MinReps: 2, MaxReps: 2, RelTol: 0.05}
	}
	if *jobs > 0 {
		opt.Jobs = *jobs
	}
	if *reps > 0 {
		opt.MaxReps = *reps
	}

	var exps []core.Experiment
	switch {
	case *figID != "all":
		e, ok := core.FigureByID(*figID)
		if !ok {
			fmt.Fprintf(os.Stderr, "figures: unknown experiment %q\n", *figID)
			os.Exit(1)
		}
		exps = []core.Experiment{e}
	case *ablOnly:
		exps = core.Ablations()
	default:
		exps = append(core.Figures(), core.Ablations()...)
	}
	if *topo != "" {
		t, err := network.ParseTopology(*topo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		for i := range exps {
			exps[i].Topology = t
		}
	}
	if *depth < 0 {
		fmt.Fprintf(os.Stderr, "figures: -depth %d is invalid\n", *depth)
		os.Exit(1)
	}
	if *depth > 0 {
		for i := range exps {
			if *depth > 1 && exps[i].Topology == network.TorusTopology {
				fmt.Fprintf(os.Stderr, "figures: -depth %d conflicts with the torus fabric of %s (2D-only); use -topology mesh\n",
					*depth, exps[i].ID)
				os.Exit(1)
			}
			if *depth > 1 {
				for _, c := range exps[i].Combos {
					if !alloc.Supports3D(c.Strategy) {
						fmt.Fprintf(os.Stderr, "figures: -depth %d conflicts with 2D-only strategy %s in %s; run a 3D-capable experiment (e.g. ablA7)\n",
							*depth, c.Strategy, exps[i].ID)
						os.Exit(1)
					}
				}
			}
			exps[i].MeshH = *depth
		}
	}

	for _, e := range exps {
		start := time.Now()
		s := core.Run(e, opt)
		fmt.Println(s.Table())
		if *plot {
			fmt.Println(s.ToTable().Chart(64, 16))
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.ID, s); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(1)
			}
		}
		rank := s.RankingLastLoad()
		fmt.Printf("ranking (best to worst at load %g):", e.Loads[len(e.Loads)-1])
		for _, c := range rank {
			fmt.Printf(" %s", c)
		}
		fmt.Println()
		if opt.Faults != nil {
			// Grid-wide resilience footer: per-run means averaged over
			// every (combo, load) cell. The link line only appears when
			// the plan has a links section that actually fired.
			var kills, failRate, availLoss, linkFails, pktLost, reroutes stats.Accumulator
			for _, cell := range s.Cells {
				kills.Add(cell.Kills)
				failRate.Add(cell.FailureRate)
				availLoss.Add(cell.AvailLoss)
				linkFails.Add(cell.LinkFailures)
				pktLost.Add(cell.PacketsLost)
				reroutes.Add(cell.Reroutes)
			}
			fmt.Printf("resilience: %.2f kills/run, failure rate %.3g, capacity loss %.1f%%\n",
				kills.Mean(), failRate.Mean(), 100*availLoss.Mean())
			if linkFails.Mean() > 0 {
				fmt.Printf("links:      %.2f failures/run, %.1f packets lost, %.1f rerouted\n",
					linkFails.Mean(), pktLost.Mean(), reroutes.Mean())
			}
		}
		fmt.Printf("elapsed: %v\n\n", time.Since(start).Round(time.Millisecond))
	}
}
