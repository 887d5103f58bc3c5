package sim

// Fault-engine tests: zero-failure plans must be bit-identical to
// fault-free runs, seeded fault schedules must reproduce exactly, kill
// policies must settle edge cases (failure inside a live allocation,
// seam-wrapped torus placements, whole-plane 3D outages, recovery
// unblocking a starved queue head).

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runFaultCase runs one Result-matrix cell with the given fault plan
// (nil for a fault-free control run). The arrival rate keeps the mesh
// busy enough that jobs queue, so a moved placement moves the metrics.
func runFaultCase(t *testing.T, c matrixCase, jobs int, plan *FaultPlan) Result {
	t.Helper()
	res, err := Run(faultCase(c, jobs, plan))
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return res
}

// faultCase builds runFaultCase's config and job source.
func faultCase(c matrixCase, jobs int, plan *FaultPlan) (Config, workload.Source) {
	cfg := DefaultConfig()
	cfg.MeshW, cfg.MeshL, cfg.MeshH = c.w, c.l, c.h
	cfg.Strategy = c.strategy
	cfg.Scheduler = c.scheduler
	cfg.Network.Topology = c.topology
	cfg.MaxCompleted = jobs
	cfg.WarmupJobs = jobs / 10
	cfg.MaxQueued = 4 * jobs
	cfg.Seed = 23
	cfg.Faults = plan
	return cfg, workload.NewAllocStress3D(stats.NewStream(5), c.w, c.l, max(1, c.h), 0.2, 60)
}

// TestZeroFailurePlanMatchesNoPlan pins the no-op guarantee: a plan
// with zero MTBF and no outages must leave every cell of the Result
// matrix byte-identical to Faults == nil — same placements, same
// metrics, all resilience fields zero.
func TestZeroFailurePlanMatchesNoPlan(t *testing.T) {
	jobs := 60
	cases := resultMatrix()
	if testing.Short() {
		cases = cases[:8]
	}
	for _, c := range cases {
		bare := runFaultCase(t, c, jobs, nil)
		noop := runFaultCase(t, c, jobs, &FaultPlan{Seed: 7})
		if bare != noop {
			t.Fatalf("%+v: zero-failure plan drifted\nnil:  %+v\nplan: %+v", c, bare, noop)
		}
		if noop.Failures != 0 || noop.JobsKilled != 0 || noop.LostWork != 0 {
			t.Fatalf("%+v: zero-failure plan reported fault activity: %+v", c, noop)
		}
	}
}

// faultyPlan is a live plan for the 32x32-sized matrix cells: enough
// random failures to kill jobs, repairs so capacity comes back.
func faultyPlan(seed int64) *FaultPlan {
	return &FaultPlan{Seed: seed, MTBF: 100000, MTTR: 300}
}

// TestFaultSeedReproducible runs an active plan twice (identical
// Results, the seeded schedule is the schedule) and at a second seed
// (schedule changes, so metrics move, but the run still completes —
// the workload stream is isolated from the fault stream).
func TestFaultSeedReproducible(t *testing.T) {
	c := matrixCase{"GABL", "FCFS", network.MeshTopology, 32, 32, 1}
	a := runFaultCase(t, c, 80, faultyPlan(41))
	b := runFaultCase(t, c, 80, faultyPlan(41))
	if a != b {
		t.Fatalf("same fault seed diverged:\n%+v\n%+v", a, b)
	}
	if a.Failures == 0 {
		t.Fatalf("plan injected no failures: %+v", a)
	}
	other := runFaultCase(t, c, 80, faultyPlan(42))
	if other.Failures == 0 {
		t.Fatalf("reseeded plan injected no failures: %+v", other)
	}
	if a == other {
		t.Fatal("different fault seeds produced identical results")
	}
	if a.Completed == 0 || other.Completed == 0 {
		t.Fatalf("faulted runs completed no jobs: %+v / %+v", a, other)
	}
}

// oneJob wraps a single hand-built job as a source.
func oneJob(j workload.Job) workload.Source {
	return workload.NewSliceSource("one", []workload.Job{j})
}

// faultCfg is a small drain-run config for the hand-built edge cases.
func faultCfg(w, l, h int, plan *FaultPlan) Config {
	cfg := DefaultConfig()
	cfg.MeshW, cfg.MeshL, cfg.MeshH = w, l, h
	cfg.Strategy = "FirstFit"
	cfg.MaxCompleted = 0 // drain the source
	cfg.MaxQueued = 0
	cfg.Faults = plan
	return cfg
}

// TestKillRequeueRestartsJob hand-checks the requeue arithmetic: a
// 4x4 job on a 4x4 mesh starts at t=0, a whole-mesh outage at t=100
// kills it (100 time units of work on 16 processors lost), recovery at
// t=300 restarts it from scratch, and it completes at t=1300. The
// original arrival is preserved, so turnaround spans the kill.
func TestKillRequeueRestartsJob(t *testing.T) {
	plan := &FaultPlan{
		Outages: []Outage{{At: 100, Duration: 200, Region: mesh.SubAt(0, 0, 4, 4)}},
	}
	res, err := Run(faultCfg(4, 4, 0, plan),
		oneJob(workload.Job{W: 4, L: 4, Compute: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.JobsKilled != 1 || res.JobsRequeued != 1 || res.JobsAborted != 0 {
		t.Fatalf("requeue counts wrong: %+v", res)
	}
	if res.MeanTurnaround != 1300 || res.MeanService != 1000 || res.MeanWait != 300 {
		t.Fatalf("requeue timing wrong: turnaround=%v service=%v wait=%v",
			res.MeanTurnaround, res.MeanService, res.MeanWait)
	}
	if res.Failures != 16 || res.Recoveries != 16 {
		t.Fatalf("outage cell counts wrong: %+v", res)
	}
	if res.LostWork != 100*16 {
		t.Fatalf("LostWork = %v, want %v", res.LostWork, 100*16)
	}
}

// TestKillAbortDropsJob is the same scenario under KillAbort: the job
// never completes, and the drain run still terminates (the killed job
// does not wedge the simulator).
func TestKillAbortDropsJob(t *testing.T) {
	plan := &FaultPlan{
		Policy:  KillAbort,
		Outages: []Outage{{At: 100, Duration: 200, Region: mesh.SubAt(0, 0, 4, 4)}},
	}
	res, err := Run(faultCfg(4, 4, 0, plan),
		oneJob(workload.Job{W: 4, L: 4, Compute: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.JobsKilled != 1 || res.JobsAborted != 1 || res.JobsRequeued != 0 {
		t.Fatalf("abort counts wrong: %+v", res)
	}
	if res.LostWork != 100*16 {
		t.Fatalf("LostWork = %v, want %v", res.LostWork, 100*16)
	}
}

// TestKillOnTorusSeamPlacement forces a seam-wrapping placement and
// then fails a cell inside the wrapped piece: a permanent outage pins
// columns x=2..5 of an 8x8 torus, so the only 4x8 placement wraps
// x in {6,7,0,1}. A second outage then fails (0,0) — inside the
// wrapped piece — killing the job; after the repair it refits (again
// wrapping) and completes.
func TestKillOnTorusSeamPlacement(t *testing.T) {
	plan := &FaultPlan{
		Outages: []Outage{
			{At: 0, Region: mesh.SubAt(2, 0, 4, 8)}, // permanent: force the wrap
			{At: 50, Duration: 100, Region: mesh.SubAt(0, 0, 1, 1)},
		},
	}
	cfg := faultCfg(8, 8, 0, plan)
	cfg.Network.Topology = network.TorusTopology
	res, err := Run(cfg, oneJob(workload.Job{W: 4, L: 8, Compute: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.JobsKilled != 1 || res.JobsRequeued != 1 {
		t.Fatalf("seam kill counts wrong: %+v", res)
	}
	// Killed at 50, blocked until the (0,0) repair at 150, reruns 100.
	if res.MeanTurnaround != 250 || res.MeanWait != 150 {
		t.Fatalf("seam kill timing wrong: turnaround=%v wait=%v",
			res.MeanTurnaround, res.MeanWait)
	}
	if res.Failures != 33 || res.Recoveries != 1 {
		t.Fatalf("seam outage cell counts wrong: %+v", res)
	}
}

// TestPlaneOutage3D fails an entire z-plane of an 8x8x2 mesh for the
// whole run: depth-1 jobs keep completing on the surviving plane, and
// the availability loss is exactly half the machine.
func TestPlaneOutage3D(t *testing.T) {
	plan := &FaultPlan{
		Outages: []Outage{{At: 0, Region: mesh.SubAt3D(0, 0, 1, 8, 8, 1)}},
	}
	jobs := []workload.Job{
		{ID: 1, Arrival: 0, W: 4, L: 4, Compute: 10},
		{ID: 2, Arrival: 1, W: 8, L: 4, Compute: 10},
		{ID: 3, Arrival: 2, W: 4, L: 8, Compute: 10},
		{ID: 4, Arrival: 3, W: 8, L: 8, Compute: 10},
	}
	res, err := Run(faultCfg(8, 8, 2, plan),
		workload.NewSliceSource("plane", jobs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 || res.JobsKilled != 0 {
		t.Fatalf("plane outage run wrong: %+v", res)
	}
	if res.Failures != 64 || res.Recoveries != 0 {
		t.Fatalf("plane cell counts wrong: %+v", res)
	}
	if res.AvailLoss != 0.5 {
		t.Fatalf("AvailLoss = %v, want 0.5 (64 of 128 pinned throughout)", res.AvailLoss)
	}
}

// TestRecoveryUnblocksQueueHead starves the queue head on failed
// capacity: a 4x4 job cannot fit a 4x4 mesh while one corner is out,
// so it waits from its arrival at t=10 until the repair at t=500. The
// warm start shifts the scenario by 1e6: the faults arm at StartTime,
// so the same times hold relative to it.
func TestRecoveryUnblocksQueueHead(t *testing.T) {
	for _, shift := range []float64{0, 1e6} {
		plan := &FaultPlan{
			Outages: []Outage{{At: shift, Duration: 500, Region: mesh.SubAt(0, 0, 1, 1)}},
		}
		cfg := faultCfg(4, 4, 0, plan)
		cfg.StartTime = shift
		res, err := Run(cfg, oneJob(workload.Job{Arrival: shift + 10, W: 4, L: 4, Compute: 100}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 1 || res.JobsKilled != 0 {
			t.Fatalf("shift %v: recovery-unblock run wrong: %+v", shift, res)
		}
		if res.MeanWait != 490 || res.MeanTurnaround != 590 {
			t.Fatalf("shift %v: recovery-unblock timing wrong: wait=%v turnaround=%v",
				shift, res.MeanWait, res.MeanTurnaround)
		}
		if res.Failures != 1 || res.Recoveries != 1 {
			t.Fatalf("shift %v: cell counts wrong: %+v", shift, res)
		}
		// One cell out for 500 of the window's 600 time units: the
		// pinned integral opens when the faults arm.
		if res.MeanPinned != 500.0/600 {
			t.Fatalf("shift %v: MeanPinned = %v, want 500/600", shift, res.MeanPinned)
		}
	}
}

// TestMaxFailuresCapsRandomFailures runs a drain run whose random
// failures would outnumber the job's few hundred time units many times
// over (MTBF 50 on every node or link) and holds each kind to its cap.
func TestMaxFailuresCapsRandomFailures(t *testing.T) {
	for _, c := range []struct {
		name string
		plan *FaultPlan
		got  func(Result) int64
	}{
		{"nodes", &FaultPlan{Seed: 3, MTBF: 50, MTTR: 5, MaxFailures: 3},
			func(r Result) int64 { return r.Failures }},
		{"links", &FaultPlan{Seed: 3, Links: &LinkPlan{MTBF: 50, MTTR: 5, MaxFailures: 3}},
			func(r Result) int64 { return r.LinkFailures }},
	} {
		res, err := Run(faultCfg(4, 4, 0, c.plan), oneJob(commJob(2, 2, 40, 300)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := c.got(res); got != 3 {
			t.Errorf("%s: %d random failures, want the cap 3: %+v", c.name, got, res)
		}
	}
}

// TestFaultedCommRunKillsMidFlight runs the paper workload (all-to-all
// communication phases) under random failures on the 16x22 mesh: kills
// must land while packets are in flight without wedging or double
// finalizing, reproducibly.
func TestFaultedCommRunKillsMidFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCompleted = 120
	cfg.WarmupJobs = 20
	cfg.Seed = 3
	cfg.Faults = &FaultPlan{Seed: 17, MTBF: 400000, MTTR: 2000}
	a, err := Run(cfg, stochasticSrc(3, 0.004))
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures == 0 || a.JobsKilled == 0 {
		t.Fatalf("comm fault run too quiet (tune MTBF/seed): %+v", a)
	}
	if a.Completed != 120 || a.PacketCount == 0 {
		t.Fatalf("comm fault run degenerate: %+v", a)
	}
	b, err := Run(cfg, stochasticSrc(3, 0.004))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("comm fault run not reproducible:\n%+v\n%+v", a, b)
	}
}

// TestFaultPlanValidate exercises the constructor-time plan checks:
// each plan has one defect, and New names it.
func TestFaultPlanValidate(t *testing.T) {
	for _, c := range []struct {
		start float64 // Config.StartTime
		plan  *FaultPlan
		want  string
	}{
		{0, &FaultPlan{MTBF: -1}, "sim: negative FaultPlan.MTBF -1"},
		{0, &FaultPlan{MTTR: -5}, "sim: negative FaultPlan.MTTR -5"},
		{0, &FaultPlan{MaxFailures: -2}, "sim: negative FaultPlan.MaxFailures -2"},
		{0, &FaultPlan{Policy: "retry"}, `sim: unknown kill policy "retry" (want "requeue" or "abort")`},
		{0, &FaultPlan{Outages: []Outage{{At: -1, Region: mesh.SubAt(0, 0, 1, 1)}}},
			"sim: negative FaultPlan.Outages[0].At -1"},
		{0, &FaultPlan{Outages: []Outage{{Region: mesh.SubAt(3, 3, 4, 4)}}}, // spills off 4x4
			"sim: outage 0 region (3,3,6,6) outside 4x4x1 mesh"},
		{0, &FaultPlan{Outages: []Outage{{Region: mesh.SubAt3D(0, 0, 1, 1, 1, 1)}}}, // z beyond 2D
			"sim: outage 0 region (0,0,1,0,0,1) outside 4x4x1 mesh"},
		{10, &FaultPlan{Outages: []Outage{{At: 5, Duration: 100, Region: mesh.SubAt(0, 0, 1, 1)}}},
			"sim: outage 0 at 5 predates StartTime 10"},
	} {
		cfg := faultCfg(4, 4, 0, c.plan)
		cfg.StartTime = c.start
		if _, err := New(cfg, oneJob(workload.Job{W: 1, L: 1, Compute: 1})); err == nil || err.Error() != c.want {
			t.Errorf("plan %+v: error %v, want %q", c.plan, err, c.want)
		}
	}
	ok := faultCfg(4, 4, 0, &FaultPlan{MTBF: 10, MTTR: 1, MaxFailures: 3,
		Outages: []Outage{{At: 2, Duration: 1, Region: mesh.SubAt(1, 1, 2, 2)}}})
	if _, err := New(ok, oneJob(workload.Job{W: 1, L: 1, Compute: 1})); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
}
