package sim

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// quickCfg is a small fast configuration for tests.
func quickCfg(strategy, scheduler string) Config {
	cfg := DefaultConfig()
	cfg.Strategy = strategy
	cfg.Scheduler = scheduler
	cfg.MaxCompleted = 120
	cfg.MaxQueued = 5000
	return cfg
}

func stochasticSrc(seed int64, rate float64) workload.Source {
	return workload.NewStochastic(stats.NewStream(seed), 16, 22, workload.UniformSides, rate, 5)
}

func TestRunCompletesAndMetricsSane(t *testing.T) {
	res, err := Run(quickCfg("GABL", "FCFS"), stochasticSrc(1, 0.005))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 120 {
		t.Fatalf("Completed = %d, want 120", res.Completed)
	}
	if res.Saturated {
		t.Fatal("saturated at light load")
	}
	if res.MeanTurnaround <= 0 || res.MeanService <= 0 {
		t.Fatalf("non-positive means: turnaround %v service %v", res.MeanTurnaround, res.MeanService)
	}
	if res.MeanTurnaround < res.MeanService {
		t.Fatalf("turnaround %v < service %v", res.MeanTurnaround, res.MeanService)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization = %v", res.Utilization)
	}
	if res.MeanLatency <= 0 || res.PacketCount == 0 {
		t.Fatalf("latency %v packets %d", res.MeanLatency, res.PacketCount)
	}
	if res.MeanBlocking < 0 || res.MeanBlocking >= res.MeanLatency {
		t.Fatalf("blocking %v vs latency %v", res.MeanBlocking, res.MeanLatency)
	}
	if res.MeanWait < 0 {
		t.Fatalf("wait = %v", res.MeanWait)
	}
	if res.MeanPieces < 1 {
		t.Fatalf("pieces = %v", res.MeanPieces)
	}
	if res.SimTime <= 0 {
		t.Fatal("SimTime not advanced")
	}
}

func TestP95TurnaroundAboveMean(t *testing.T) {
	res, err := Run(quickCfg("GABL", "FCFS"), stochasticSrc(31, 0.003))
	if err != nil {
		t.Fatal(err)
	}
	if res.P95Turnaround <= res.MeanTurnaround {
		t.Fatalf("P95 %v <= mean %v for a right-skewed distribution",
			res.P95Turnaround, res.MeanTurnaround)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		r, err := Run(quickCfg("GABL", "SSD"), stochasticSrc(7, 0.01))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical runs differ:\n%+v\n%+v", a, b)
	}
}

func TestAllStrategySchedulerPairsRun(t *testing.T) {
	for _, strat := range []string{"GABL", "Paging(0)", "MBS", "Random"} {
		for _, sch := range []string{"FCFS", "SSD", "SJF", "LJF"} {
			cfg := quickCfg(strat, sch)
			cfg.MaxCompleted = 40
			res, err := Run(cfg, stochasticSrc(3, 0.005))
			if err != nil {
				t.Fatalf("%s/%s: %v", strat, sch, err)
			}
			if res.Completed != 40 {
				t.Fatalf("%s/%s completed %d", strat, sch, res.Completed)
			}
		}
	}
}

func TestTraceJobsIncludeComputeDemand(t *testing.T) {
	// A single job with a large compute demand and no load: service
	// must be at least the compute demand.
	jobs := []workload.Job{{ID: 0, Arrival: 10, W: 2, L: 2, Compute: 500, Messages: 2}}
	cfg := quickCfg("GABL", "FCFS")
	cfg.MaxCompleted = 1
	res, err := Run(cfg, workload.NewSliceSource("one", jobs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("Completed = %d", res.Completed)
	}
	if res.MeanService < 500 {
		t.Fatalf("service %v < compute demand 500", res.MeanService)
	}
	if res.MeanService > 700 {
		t.Fatalf("service %v implausibly above compute+comm", res.MeanService)
	}
	if res.MeanTurnaround != res.MeanService {
		t.Fatalf("lone job turnaround %v != service %v", res.MeanTurnaround, res.MeanService)
	}
}

func TestSingleProcessorJobNoCommunication(t *testing.T) {
	jobs := []workload.Job{{ID: 0, Arrival: 0, W: 1, L: 1, Compute: 42, Messages: 5}}
	cfg := quickCfg("GABL", "FCFS")
	cfg.MaxCompleted = 1
	res, err := Run(cfg, workload.NewSliceSource("one", jobs))
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketCount != 0 {
		t.Fatalf("single-processor job sent %d packets", res.PacketCount)
	}
	if res.MeanService != 42 {
		t.Fatalf("service = %v, want 42", res.MeanService)
	}
}

func TestFCFSBlocksBehindBigJob(t *testing.T) {
	// Big job occupies everything; a small job arrives later but a
	// huge job is queued ahead of it. Under FCFS the small job must
	// wait for the huge one to start first.
	jobs := []workload.Job{
		{ID: 0, Arrival: 0, W: 16, L: 22, Compute: 1000, Messages: 0},
		{ID: 1, Arrival: 1, W: 16, L: 22, Compute: 1000, Messages: 0},
		{ID: 2, Arrival: 2, W: 1, L: 1, Compute: 1, Messages: 0},
	}
	cfg := quickCfg("GABL", "FCFS")
	cfg.MaxCompleted = 3
	res, err := Run(cfg, workload.NewSliceSource("t", jobs))
	if err != nil {
		t.Fatal(err)
	}
	// Job 2 can only start after job 1 starts (t=1000), so its
	// turnaround is ~1999+; mean turnaround across all three reflects it.
	if res.MeanTurnaround < 900 {
		t.Fatalf("mean turnaround %v too small: FCFS blocking not enforced", res.MeanTurnaround)
	}
}

func TestSSDOvertakesShortJob(t *testing.T) {
	// Under SSD the tiny job (smallest demand) runs before the second
	// huge job, so its wait is ~1000 instead of ~2000.
	mk := func(sch string) Result {
		jobs := []workload.Job{
			{ID: 0, Arrival: 0, W: 16, L: 22, Compute: 1000, Messages: 0},
			{ID: 1, Arrival: 1, W: 16, L: 22, Compute: 1000, Messages: 0},
			{ID: 2, Arrival: 2, W: 1, L: 1, Compute: 1, Messages: 0},
		}
		cfg := quickCfg("GABL", sch)
		cfg.MaxCompleted = 3
		res, err := Run(cfg, workload.NewSliceSource("t", jobs))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fcfs, ssd := mk("FCFS"), mk("SSD")
	if ssd.MeanTurnaround >= fcfs.MeanTurnaround {
		t.Fatalf("SSD turnaround %v >= FCFS %v on SSD-favourable workload",
			ssd.MeanTurnaround, fcfs.MeanTurnaround)
	}
}

func TestBackfillLetsSmallJobBypass(t *testing.T) {
	// Huge job runs; huge job queued; tiny job behind it. Without
	// backfilling the tiny job waits for the second huge one; with it,
	// it starts immediately on the free processor.
	jobs := []workload.Job{
		{ID: 0, Arrival: 0, W: 16, L: 21, Compute: 1000, Messages: 0},
		{ID: 1, Arrival: 1, W: 16, L: 22, Compute: 1000, Messages: 0},
		{ID: 2, Arrival: 2, W: 1, L: 1, Compute: 1, Messages: 0},
	}
	run := func(depth int) Result {
		cfg := quickCfg("GABL", "FCFS")
		cfg.BackfillDepth = depth
		cfg.MaxCompleted = 3
		res, err := Run(cfg, workload.NewSliceSource("t", jobs))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, backfill := run(0), run(8)
	if backfill.MeanTurnaround >= plain.MeanTurnaround {
		t.Fatalf("backfill turnaround %v >= plain %v",
			backfill.MeanTurnaround, plain.MeanTurnaround)
	}
	// FCFS fairness: the blocked head must still run (all 3 complete).
	if backfill.Completed != 3 {
		t.Fatalf("backfill completed %d", backfill.Completed)
	}
}

func TestBackfillKeepsHeadOrder(t *testing.T) {
	// All jobs equal size: backfilling must not change FCFS results.
	var jobs []workload.Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, workload.Job{
			ID: i, Arrival: float64(i * 10), W: 8, L: 11, Compute: 500, Messages: 0,
		})
	}
	run := func(depth int) Result {
		cfg := quickCfg("GABL", "FCFS")
		cfg.BackfillDepth = depth
		cfg.MaxCompleted = 20
		res, err := Run(cfg, workload.NewSliceSource("t", jobs))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(0), run(8); a.MeanTurnaround != b.MeanTurnaround {
		t.Fatalf("backfill changed equal-size FCFS outcome: %v vs %v",
			a.MeanTurnaround, b.MeanTurnaround)
	}
}

func TestSaturationDetected(t *testing.T) {
	cfg := quickCfg("GABL", "FCFS")
	cfg.MaxQueued = 50
	cfg.MaxCompleted = 100000
	// Absurd load: mean interarrival 1 time unit for ~100-proc jobs.
	res, err := Run(cfg, stochasticSrc(5, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("saturation not detected at absurd load")
	}
}

func TestWarmupExcluded(t *testing.T) {
	cfg := quickCfg("GABL", "FCFS")
	cfg.WarmupJobs = 50
	cfg.MaxCompleted = 50
	res, err := Run(cfg, stochasticSrc(11, 0.005))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 50 {
		t.Fatalf("measured %d, want 50 after warmup", res.Completed)
	}
}

func TestUtilizationIncreasesWithLoad(t *testing.T) {
	at := func(rate float64) float64 {
		cfg := quickCfg("GABL", "FCFS")
		res, err := Run(cfg, stochasticSrc(13, rate))
		if err != nil {
			t.Fatal(err)
		}
		return res.Utilization
	}
	low, high := at(0.0005), at(0.02)
	if high <= low {
		t.Fatalf("utilization did not increase with load: %v -> %v", low, high)
	}
}

func TestUnknownStrategyAndScheduler(t *testing.T) {
	cfg := quickCfg("Bogus", "FCFS")
	if _, err := Run(cfg, stochasticSrc(1, 0.01)); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	cfg = quickCfg("GABL", "Bogus")
	if _, err := Run(cfg, stochasticSrc(1, 0.01)); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	cfg = quickCfg("GABL", "FCFS")
	cfg.MeshW = 0
	if _, err := Run(cfg, stochasticSrc(1, 0.01)); err == nil {
		t.Fatal("invalid mesh accepted")
	}
	// The network is built lazily on first Send, but its configuration
	// must still fail at New, not mid-run (or never, for a run that
	// happens not to communicate).
	cfg = quickCfg("GABL", "FCFS")
	cfg.Network.BufferDepth = 0
	if _, err := Run(cfg, stochasticSrc(1, 0.01)); err == nil {
		t.Fatal("invalid network config accepted")
	}
	cfg = quickCfg("GABL", "FCFS")
	cfg.Network.PacketLen = 0
	if _, err := Run(cfg, stochasticSrc(1, 0.01)); err == nil {
		t.Fatal("zero packet length accepted")
	}
}

func TestTraceSourceDrainsWithoutMaxCompleted(t *testing.T) {
	jobs := workload.SyntheticParagon(workload.ParagonSpec{
		Jobs: 30, MeshW: 16, MeshL: 22, MeanInterarrival: 10, NumMes: 3,
	}, 9)
	cfg := quickCfg("MBS", "FCFS")
	cfg.MaxCompleted = 0 // run to drain
	res, err := Run(cfg, workload.NewSliceSource("paragon", jobs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 30 {
		t.Fatalf("Completed = %d, want all 30", res.Completed)
	}
}

// TestOversizeJobIsRunError feeds a library source whose eighth job
// cannot fit the 16x22 mesh: the run ends with an error naming the job
// and the mesh, not a panic.
func TestOversizeJobIsRunError(t *testing.T) {
	var jobs []workload.Job
	for i := 0; i < 7; i++ {
		jobs = append(jobs, workload.Job{ID: i, Arrival: float64(i), W: 4, L: 4, Compute: 10})
	}
	jobs = append(jobs, workload.Job{ID: 7, Arrival: 7, W: 17, L: 4, Compute: 10})
	_, err := Run(DefaultConfig(), workload.NewSliceSource("oversize", jobs))
	const want = "sim: job 7 request 17x4x1 does not fit 16x22x1 mesh"
	if err == nil || err.Error() != want {
		t.Fatalf("Run error = %v, want %q", err, want)
	}
}

// Integration sanity: GABL's contiguity should yield lower packet
// latency than fully random scatter under identical conditions.
func TestGABLBeatsRandomScatterOnLatency(t *testing.T) {
	at := func(strategy string) float64 {
		cfg := quickCfg(strategy, "FCFS")
		cfg.MaxCompleted = 150
		res, err := Run(cfg, stochasticSrc(17, 0.01))
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanLatency
	}
	gabl, random := at("GABL"), at("Random")
	if gabl >= random {
		t.Fatalf("GABL latency %v >= Random %v", gabl, random)
	}
}
