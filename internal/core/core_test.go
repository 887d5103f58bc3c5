package core

import (
	"math"
	"testing"

	"repro/internal/workload"
)

func TestComboString(t *testing.T) {
	c := Combo{Strategy: "GABL", Scheduler: "SSD"}
	if c.String() != "GABL(SSD)" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestPaperCombos(t *testing.T) {
	combos := PaperCombos()
	if len(combos) != 6 {
		t.Fatalf("combos = %d, want 6", len(combos))
	}
	seen := map[string]bool{}
	for _, c := range combos {
		seen[c.String()] = true
	}
	for _, want := range []string{
		"GABL(FCFS)", "Paging(0)(FCFS)", "MBS(FCFS)",
		"GABL(SSD)", "Paging(0)(SSD)", "MBS(SSD)",
	} {
		if !seen[want] {
			t.Fatalf("missing combo %s", want)
		}
	}
}

func TestMetricNamesAndPolarity(t *testing.T) {
	if Turnaround.String() != "turnaround" || Latency.String() != "latency" {
		t.Fatal("metric names wrong")
	}
	if Metric(99).String() != "Metric(99)" {
		t.Fatal("unknown metric name wrong")
	}
	if Utilization.LowerIsBetter() {
		t.Fatal("utilization should be higher-is-better")
	}
	if !Turnaround.LowerIsBetter() {
		t.Fatal("turnaround should be lower-is-better")
	}
}

func TestWorkloadString(t *testing.T) {
	if RealTrace.String() != "real" || StochasticExp.String() != "stochastic-exponential" {
		t.Fatal("workload names wrong")
	}
	if Workload(9).String() != "Workload(9)" {
		t.Fatal("unknown workload name wrong")
	}
}

func TestWorkloadSourceStochastic(t *testing.T) {
	src := StochasticUniform.Source(16, 22, 1, 0.01, 7)
	prev := 0.0
	for i := 0; i < 100; i++ {
		j, ok := src.Next()
		if !ok {
			t.Fatal("stochastic source exhausted")
		}
		if j.Arrival <= prev {
			t.Fatal("arrivals not increasing")
		}
		prev = j.Arrival
	}
}

func TestWorkloadSourceRealScalesToLoad(t *testing.T) {
	load := 0.01
	src := RealTrace.Source(16, 22, 1, load, 3)
	jobs := workload.Collect(src, 0)
	if len(jobs) != 10658 {
		t.Fatalf("trace jobs = %d", len(jobs))
	}
	got := 1 / workload.MeanInterarrival(jobs)
	if got < 0.0099 || got > 0.0101 {
		t.Fatalf("scaled load = %v, want %v", got, load)
	}
}

func TestWorkloadSourceCachesTrace(t *testing.T) {
	a := RealTrace.Source(16, 22, 1, 0.01, 55)
	b := RealTrace.Source(16, 22, 1, 0.02, 55)
	ja, _ := a.Next()
	jb, _ := b.Next()
	// Same base trace scaled differently: arrival ratio 2.
	ratio := ja.Arrival / jb.Arrival
	if ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("arrival ratio = %v, want 2 (same cached trace)", ratio)
	}
	if ja.Size() != jb.Size() {
		t.Fatal("cached trace differs between loads")
	}
}

func TestWorkloadSourcePanics(t *testing.T) {
	for _, load := range []float64{0, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("load %v did not panic", load)
				}
			}()
			StochasticUniform.Source(16, 22, 1, load, 1)
		}()
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	combos := PaperCombos()
	for _, c := range combos {
		for _, load := range []float64{0.001, 0.002} {
			for rep := 0; rep < 3; rep++ {
				s := deriveSeed("fig02", c, load, rep)
				if seen[s] {
					t.Fatalf("seed collision for %s/%v/%d", c, load, rep)
				}
				seen[s] = true
			}
		}
	}
	if deriveSeed("a", combos[0], 1, 0) != deriveSeed("a", combos[0], 1, 0) {
		t.Fatal("deriveSeed not deterministic")
	}
}
