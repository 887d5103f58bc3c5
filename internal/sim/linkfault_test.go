package sim

// Link-fault engine tests: zero-link plans must be bit-identical to
// plans without a links section, seeded link schedules must reproduce,
// scheduled cuts must detour or deterministically lose packets with
// perfect end-to-end conservation, kills must race link recoveries
// without wedging the drain accounting.

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/workload"
)

// commJob is one hand-built communicating job: W x L processors, each
// sending msgs packets (all-to-all ring destinations), plus compute.
func commJob(w, l, msgs int, compute float64) workload.Job {
	return workload.Job{W: w, L: l, Messages: msgs, Compute: compute}
}

// TestZeroLinkPlanMatchesNoPlan pins the no-op guarantee for the links
// section: a plan whose links section cannot fail anything must leave
// runs byte-identical to the same plan without one — and to no plan at
// all — including the packet accounting fields.
func TestZeroLinkPlanMatchesNoPlan(t *testing.T) {
	cfg := quickCfg("GABL", "FCFS")
	bare, err := Run(cfg, stochasticSrc(9, 0.004))
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*FaultPlan{
		{Seed: 7, Links: &LinkPlan{}},
		{Seed: 7},
	} {
		cfg := quickCfg("GABL", "FCFS")
		cfg.Faults = plan
		got, err := Run(cfg, stochasticSrc(9, 0.004))
		if err != nil {
			t.Fatal(err)
		}
		if bare != got {
			t.Fatalf("zero-link plan %+v drifted\nnil:  %+v\nplan: %+v", plan, bare, got)
		}
	}
	if bare.PacketsSent == 0 || bare.PacketsSent != bare.PacketsDelivered {
		t.Fatalf("fault-free accounting wrong: %+v", bare)
	}
	if bare.PacketsLost != 0 || bare.LinkFailures != 0 || bare.Reroutes != 0 || bare.PacketRetries != 0 {
		t.Fatalf("fault-free run reported link activity: %+v", bare)
	}
}

// TestLinkOutageDetoursAndRecovers cuts one on-route link for a window
// in the middle of a communicating job: deliveries detour (reroutes,
// possibly retries), nothing is lost — a 4x2 fabric always has a way
// around one cut — and the accounting balances.
func TestLinkOutageDetoursAndRecovers(t *testing.T) {
	plan := &FaultPlan{Links: &LinkPlan{Outages: []LinkOutage{
		{At: 30, Duration: 400, Links: []LinkRef{{X: 1, Y: 0, Dir: "East"}}},
	}}}
	cfg := faultCfg(4, 2, 0, plan)
	res, err := Run(cfg, oneJob(commJob(4, 2, 12, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("job did not complete: %+v", res)
	}
	if res.LinkFailures != 1 || res.LinkRecoveries != 1 {
		t.Fatalf("link counts wrong: %+v", res)
	}
	if res.Reroutes == 0 {
		t.Fatalf("no deliveries detoured around the cut: %+v", res)
	}
	if res.PacketsLost != 0 {
		t.Fatalf("lost packets despite an available detour: %+v", res)
	}
	if res.PacketsSent != res.PacketsDelivered {
		t.Fatalf("conservation: sent %d != delivered %d", res.PacketsSent, res.PacketsDelivered)
	}
}

// TestRowOutageLosesDeterministically severs every northbound link of
// row 0 permanently, mid-run: a 4x2 job's south-to-north packets — in
// flight and yet to be injected — have no route and must be lost
// (retry exhaustion is immediate: the detour router finds no path),
// while north-to-south traffic still delivers. The job completes
// anyway: losses advance the send chains.
func TestRowOutageLosesDeterministically(t *testing.T) {
	plan := &FaultPlan{Links: &LinkPlan{Outages: []LinkOutage{
		{At: 30, Row: &LinkRow{Y: 0, Dir: "North"}},
	}}}
	cfg := faultCfg(4, 2, 0, plan)
	res, err := Run(cfg, oneJob(commJob(4, 2, 12, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("job did not complete through its losses: %+v", res)
	}
	if res.LinkFailures != 4 || res.LinkRecoveries != 0 {
		t.Fatalf("row cut counts wrong: %+v", res)
	}
	if res.PacketsLost == 0 {
		t.Fatalf("severed row lost no packets: %+v", res)
	}
	if res.PacketsSent != res.PacketsDelivered+res.PacketsLost {
		t.Fatalf("conservation: sent %d != delivered %d + lost %d",
			res.PacketsSent, res.PacketsDelivered, res.PacketsLost)
	}
}

// TestRequeueKillRacesLinkRecovery overlaps a node outage (killing a
// communicating job mid-flight) with a link outage over the same
// region: the killed job's packets drain — delivered or lost — through
// the drain counter, the job requeues after the repairs, reruns, and
// the run terminates with balanced accounting.
func TestRequeueKillRacesLinkRecovery(t *testing.T) {
	plan := &FaultPlan{
		Outages: []Outage{{At: 40, Duration: 200, Region: mesh.SubAt(0, 0, 1, 1)}},
		Links: &LinkPlan{Outages: []LinkOutage{
			{At: 35, Duration: 180, Row: &LinkRow{Y: 0, Dir: "North"}},
			{At: 38, Duration: 150, Links: []LinkRef{{X: 1, Y: 0, Dir: "East"}, {X: 2, Y: 1, Dir: "West"}}},
		}},
	}
	cfg := faultCfg(4, 2, 0, plan)
	res, err := Run(cfg, oneJob(commJob(4, 2, 20, 10)))
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsKilled != 1 || res.JobsRequeued != 1 {
		t.Fatalf("kill counts wrong: %+v", res)
	}
	if res.Completed != 1 {
		t.Fatalf("requeued job did not complete: %+v", res)
	}
	if res.PacketsSent != res.PacketsDelivered+res.PacketsLost {
		t.Fatalf("conservation: sent %d != delivered %d + lost %d",
			res.PacketsSent, res.PacketsDelivered, res.PacketsLost)
	}
}

// linkChurnPlan flaps links continuously under the paper workload.
func linkChurnPlan(seed int64) *FaultPlan {
	return &FaultPlan{Seed: seed, Links: &LinkPlan{MTBF: 600000, MTTR: 1500}}
}

// TestLinkFaultSeedReproducible runs a live link plan twice (identical
// Results) and at a second seed (different schedule, still completes).
func TestLinkFaultSeedReproducible(t *testing.T) {
	run := func(seed int64) Result {
		cfg := quickCfg("GABL", "FCFS")
		cfg.Faults = linkChurnPlan(seed)
		res, err := Run(cfg, stochasticSrc(3, 0.004))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(21), run(21)
	if a != b {
		t.Fatalf("same link seed diverged:\n%+v\n%+v", a, b)
	}
	if a.LinkFailures == 0 || a.Reroutes == 0 {
		t.Fatalf("link plan too quiet (tune MTBF/seed): %+v", a)
	}
	if other := run(22); a == other {
		t.Fatal("different link seeds produced identical results")
	}
}

// TestLinkPlanValidate exercises the constructor-time links checks:
// each plan has one defect, and New names it.
func TestLinkPlanValidate(t *testing.T) {
	east := []LinkRef{{X: 0, Y: 0, Dir: "East"}}
	for _, c := range []struct {
		start float64 // Config.StartTime
		lp    *LinkPlan
		want  string
	}{
		{0, &LinkPlan{MTBF: -1}, "sim: negative LinkPlan.MTBF -1"},
		{0, &LinkPlan{MTTR: -2}, "sim: negative LinkPlan.MTTR -2"},
		{0, &LinkPlan{MaxFailures: -3}, "sim: negative LinkPlan.MaxFailures -3"},
		{0, &LinkPlan{Outages: []LinkOutage{{At: -1, Links: east}}}, "sim: negative LinkPlan.Outages[0].At -1"},
		{0, &LinkPlan{Outages: []LinkOutage{{}}}, "sim: link outage 0 names no links"},
		{0, &LinkPlan{Outages: []LinkOutage{{Links: []LinkRef{{X: 0, Y: 0, Dir: "Sideways"}}}}},
			`sim: link outage 0 link 0: network: unknown direction "Sideways"`},
		{0, &LinkPlan{Outages: []LinkOutage{{Links: []LinkRef{{X: 0, Y: 0, Dir: "Inject"}}}}}, // processor link
			"sim: link outage 0 link 0: processor links fail with their node, not in a link plan"},
		{0, &LinkPlan{Outages: []LinkOutage{{Links: []LinkRef{{X: 9, Y: 0, Dir: "East"}}}}}, // off the mesh
			"sim: link outage 0 link 0 node (9,0) outside 4x4x1 mesh"},
		{0, &LinkPlan{Outages: []LinkOutage{{Links: []LinkRef{{X: 3, Y: 0, Dir: "East"}}}}}, // mesh border
			"sim: link outage 0 link 0: no East link at (3,0) on this fabric"},
		{0, &LinkPlan{Outages: []LinkOutage{{Links: []LinkRef{{X: 0, Y: 0, Dir: "Up"}}}}}, // 2D fabric
			"sim: link outage 0 link 0: no Up link at (0,0) on this fabric"},
		{0, &LinkPlan{Outages: []LinkOutage{{Row: &LinkRow{Y: 9, Dir: "North"}}}}, // row off the mesh
			"sim: link outage 0 row y=9 z=0 outside 4x4x1 mesh"},
		{0, &LinkPlan{Outages: []LinkOutage{{Row: &LinkRow{Y: 3, Dir: "North"}}}}, // border row: no links
			"sim: link outage 0 row y=3 has no North links on this fabric"},
		{0, &LinkPlan{Outages: []LinkOutage{{Row: &LinkRow{Y: 0, Dir: "Eject"}}}}, // processor links
			"sim: link outage 0 row: processor links fail with their node, not in a link plan"},
		{0, &LinkPlan{Outages: []LinkOutage{{Row: &LinkRow{Y: 0, Dir: "Sideways"}}}},
			`sim: link outage 0 row: network: unknown direction "Sideways"`},
		{10, &LinkPlan{Outages: []LinkOutage{{At: 5, Links: east}}},
			"sim: link outage 0 at 5 predates StartTime 10"},
	} {
		cfg := faultCfg(4, 4, 0, &FaultPlan{Links: c.lp})
		cfg.StartTime = c.start
		if _, err := New(cfg, oneJob(workload.Job{W: 1, L: 1, Compute: 1})); err == nil || err.Error() != c.want {
			t.Errorf("links plan %+v: error %v, want %q", c.lp, err, c.want)
		}
	}
	good := &FaultPlan{Links: &LinkPlan{MTBF: 1000, MTTR: 10, MaxFailures: 5,
		Outages: []LinkOutage{
			{At: 5, Duration: 10, Links: []LinkRef{{X: 1, Y: 1, Dir: "West"}}},
			{At: 8, Row: &LinkRow{Y: 1, Dir: "North"}},
		}}}
	if _, err := New(faultCfg(4, 4, 0, good), oneJob(workload.Job{W: 1, L: 1, Compute: 1})); err != nil {
		t.Fatalf("good links plan rejected: %v", err)
	}
	// The border link exists on a torus: the same ref flips validity
	// with the topology.
	border := &FaultPlan{Links: &LinkPlan{Outages: []LinkOutage{
		{Links: []LinkRef{{X: 3, Y: 0, Dir: "East"}}},
	}}}
	cfg := faultCfg(4, 4, 0, border)
	cfg.Network.Topology = network.TorusTopology
	if _, err := New(cfg, oneJob(workload.Job{W: 1, L: 1, Compute: 1})); err != nil {
		t.Fatalf("torus wrap link rejected: %v", err)
	}
}
