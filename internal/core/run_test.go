package core

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

// quickOpts keeps harness tests fast: tiny runs, fixed replication.
func quickOpts() Options {
	return Options{
		Jobs:       60,
		Replicator: stats.Replicator{MinReps: 2, MaxReps: 2, RelTol: 0.5},
	}
}

// quickExp is a cut-down two-combo, two-load experiment.
func quickExp() Experiment {
	return Experiment{
		ID:     "test",
		Title:  "harness test",
		Metric: Turnaround,
		// Real trace sources replay 10658-job traces; the stochastic
		// source is cheaper for harness tests.
		Workload: StochasticUniform,
		Loads:    []float64{0.001, 0.002},
		Combos: []Combo{
			{Strategy: "GABL", Scheduler: "FCFS"},
			{Strategy: "MBS", Scheduler: "FCFS"},
		},
		Jobs:   60,
		Warmup: 10,
	}
}

func TestRunProducesFullGrid(t *testing.T) {
	s := Run(quickExp(), quickOpts())
	if len(s.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(s.Cells))
	}
	for _, c := range s.Cells {
		if c.Value.Mean <= 0 {
			t.Fatalf("cell %s@%v mean %v", c.Combo, c.Load, c.Value.Mean)
		}
		if c.Reps != 2 {
			t.Fatalf("cell %s@%v reps %d, want 2", c.Combo, c.Load, c.Reps)
		}
		if c.Means[Utilization] <= 0 || c.Means[Utilization] > 1 {
			t.Fatalf("cell utilization %v", c.Means[Utilization])
		}
		if c.Means[Latency] < c.Means[Blocking] {
			t.Fatalf("latency %v < blocking %v", c.Means[Latency], c.Means[Blocking])
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(quickExp(), quickOpts())
	b := Run(quickExp(), quickOpts())
	for i := range a.Cells {
		if a.Cells[i].Value.Mean != b.Cells[i].Value.Mean {
			t.Fatalf("cell %d differs across identical runs", i)
		}
	}
	// A different BaseSeed gives a different (but valid) answer.
	opts := quickOpts()
	opts.BaseSeed = 999
	c := Run(quickExp(), opts)
	same := true
	for i := range a.Cells {
		if a.Cells[i].Value.Mean != c.Cells[i].Value.Mean {
			same = false
		}
	}
	if same {
		t.Fatal("BaseSeed had no effect")
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	serial := Run(quickExp(), func() Options { o := quickOpts(); o.Parallelism = 1; return o }())
	parallel := Run(quickExp(), func() Options { o := quickOpts(); o.Parallelism = 8; return o }())
	for i := range serial.Cells {
		if serial.Cells[i].Value.Mean != parallel.Cells[i].Value.Mean {
			t.Fatal("parallel execution changed results")
		}
	}
}

func TestSeriesAtAndRanking(t *testing.T) {
	s := Run(quickExp(), quickOpts())
	if _, ok := s.At(Combo{Strategy: "GABL", Scheduler: "FCFS"}, 0.001); !ok {
		t.Fatal("At failed for existing cell")
	}
	if _, ok := s.At(Combo{Strategy: "X", Scheduler: "Y"}, 0.001); ok {
		t.Fatal("At found nonexistent cell")
	}
	r := s.Ranking(0.002)
	if len(r) != 2 {
		t.Fatalf("ranking size %d", len(r))
	}
	a, _ := s.At(r[0], 0.002)
	b, _ := s.At(r[1], 0.002)
	if a.Value.Mean > b.Value.Mean {
		t.Fatal("ranking not sorted for lower-is-better metric")
	}
	last := s.RankingLastLoad()
	if len(last) != 2 {
		t.Fatal("RankingLastLoad size")
	}
}

func TestRankingHigherIsBetterForUtilization(t *testing.T) {
	e := quickExp()
	e.Metric = Utilization
	s := Run(e, quickOpts())
	r := s.Ranking(0.002)
	a, _ := s.At(r[0], 0.002)
	b, _ := s.At(r[1], 0.002)
	if a.Value.Mean < b.Value.Mean {
		t.Fatal("utilization ranking not descending")
	}
}

func TestTableRendering(t *testing.T) {
	s := Run(quickExp(), quickOpts())
	tab := s.Table()
	for _, want := range []string{"test", "GABL(FCFS)", "MBS(FCFS)", "0.001", "0.002"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
	lines := strings.Split(strings.TrimSpace(tab), "\n")
	if len(lines) != 2+len(quickExp().Loads) {
		t.Fatalf("table has %d lines:\n%s", len(lines), tab)
	}
}

func TestJobsOverrideAndMaxReps(t *testing.T) {
	e := quickExp()
	opts := quickOpts()
	opts.Jobs = 30
	opts.MaxReps = 1
	opts.Replicator = stats.Replicator{MinReps: 3, MaxReps: 9, RelTol: 0.0001}
	s := Run(e, opts)
	for _, c := range s.Cells {
		if c.Reps != 1 {
			t.Fatalf("MaxReps override ignored: reps = %d", c.Reps)
		}
	}
}

// Integration: the paper's utilization claim — at heavy load every
// non-contiguous strategy lands in the 72-89 % band, roughly equal.
func TestUtilizationBandAtHeavyLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("integration utilization test")
	}
	e, _ := FigureByID("fig09")
	opts := quickOpts()
	opts.Jobs = 400
	s := Run(e, opts)
	var lo, hi float64 = 1, 0
	for _, c := range s.Cells {
		u := c.Value.Mean
		if u < 0.65 || u > 0.95 {
			t.Errorf("%s utilization %v outside plausible band", c.Combo, u)
		}
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	// "The utilization of the three non-contiguous strategies is
	// approximately the same" — within each scheduler the spread is
	// small; across everything it stays under 15 points.
	if hi-lo > 0.15 {
		t.Errorf("utilization spread %v too wide: [%v, %v]", hi-lo, lo, hi)
	}
}

// Integration: the headline ranking claim on a small but meaningful
// run — GABL(FCFS) beats MBS(FCFS) turnaround on both workload families.
func TestGABLBeatsMBSBothWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("integration ranking test")
	}
	for _, w := range []Workload{StochasticUniform, RealTrace} {
		e := quickExp()
		e.Workload = w
		e.Loads = []float64{0.003}
		if w == RealTrace {
			e.Loads = []float64{0.005}
		}
		opts := quickOpts()
		opts.Jobs = 400
		s := Run(e, opts)
		g, _ := s.At(Combo{Strategy: "GABL", Scheduler: "FCFS"}, e.Loads[0])
		m, _ := s.At(Combo{Strategy: "MBS", Scheduler: "FCFS"}, e.Loads[0])
		if g.Value.Mean >= m.Value.Mean {
			t.Fatalf("%v: GABL %v >= MBS %v", w, g.Value.Mean, m.Value.Mean)
		}
	}
}
