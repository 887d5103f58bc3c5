package sim

// Pinned-digest Result matrix: every strategy family under both
// schedulers on the mesh, the torus and the 3D mesh, plus live node
// faults, link churn, the example fault-plan file and a composed plan
// that runs every outage path, and the paper's real workload at four
// seeds, each run once and its full Result hashed.
// The digests are committed below, so a refactor of the search,
// allocation, scheduling, fault or network layers that moves a single
// placement — or any metric — fails here with the digest it produced.
// The table was generated on linux/amd64.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/workload"
)

// matrixCase is one (strategy, scheduler, topology, geometry) cell of
// the Result matrix.
type matrixCase struct {
	strategy  string
	scheduler string
	topology  network.Topology
	w, l, h   int
}

func (c matrixCase) String() string {
	return fmt.Sprintf("%s/%s/%s/%dx%dx%d", c.strategy, c.scheduler, c.topology, c.w, c.l, c.h)
}

// resultMatrix lists the fault-free cells: the scanning strategies plus
// the probe strategies MBS and Paging(0), across FCFS/SSD, mesh/torus
// and 2D/3D (torus and MBS stay 2D by design).
func resultMatrix() []matrixCase {
	var cases []matrixCase
	for _, sch := range []string{"FCFS", "SSD"} {
		for _, st := range []string{"GABL", "FirstFit", "BestFit", "ANCA", "FrameSliding", "MBS", "Paging(0)"} {
			cases = append(cases,
				matrixCase{st, sch, network.MeshTopology, 32, 32, 1},
				matrixCase{st, sch, network.TorusTopology, 32, 32, 1})
			if st != "MBS" {
				cases = append(cases, matrixCase{st, sch, network.MeshTopology, 16, 16, 4})
			}
		}
	}
	return cases
}

// faultedMatrix lists the cells run under live node faults
// (faultyPlan): kills, requeues and repairs on mesh, torus and 3D.
func faultedMatrix() []matrixCase {
	return []matrixCase{
		{"GABL", "FCFS", network.MeshTopology, 32, 32, 1},
		{"FirstFit", "SSD", network.TorusTopology, 32, 32, 1},
		{"BestFit", "FCFS", network.MeshTopology, 16, 16, 4},
	}
}

// faultCell is one pinned cell run under a fault plan: its config and
// job source, and the check that the plan did what the cell pins.
type faultCell struct {
	name  string
	cfg   Config
	src   workload.Source
	teeth func(Result) bool
}

// faultCells lists the pinned cells that run under fault plans, each
// with a fresh source: live node faults on mesh, torus and 3D, node
// and link churn on the paper mesh, the example plan file, and a
// composed plan.
func faultCells(t *testing.T) []faultCell {
	t.Helper()
	var cells []faultCell
	for _, c := range faultedMatrix() {
		cfg, src := faultCase(c, 80, faultyPlan(9))
		cells = append(cells, faultCell{"faulted/" + c.String(), cfg, src,
			func(r Result) bool { return r.Failures > 0 }})
	}
	churn := quickCfg("GABL", "FCFS")
	churn.Faults = &FaultPlan{Seed: 21,
		MTBF: 900000, MTTR: 2000, // node kills in the mix too
		Links: &LinkPlan{MTBF: 500000, MTTR: 1500}}
	cells = append(cells, faultCell{"linkchurn/GABL/FCFS/mesh/16x22x1", churn, stochasticSrc(3, 0.004),
		func(r Result) bool { return r.LinkFailures > 0 }})
	// The example plan's outages end by t = 260,000; 400 jobs run past
	// it, so every outage starts and ends inside the run.
	file := quickCfg("GABL", "FCFS")
	file.MaxCompleted = 400
	file.Faults = examplePlan(t)
	fileEnd := lastOutageEnd(file.Faults)
	cells = append(cells, faultCell{"faultplan/GABL/FCFS/mesh/16x22x1", file, stochasticSrc(3, 0.004),
		func(r Result) bool { return float64(r.SimTime) > fileEnd }})
	composed := quickCfg("GABL", "FCFS")
	composed.Faults = composedPlan()
	composedEnd := lastOutageEnd(composed.Faults)
	cells = append(cells, faultCell{"composed/GABL/FCFS/mesh/16x22x1", composed,
		workload.NewStochastic(stats.NewStream(3), 10, 12, workload.UniformSides, 0.006, 5),
		func(r Result) bool { return r.JobsAborted > 0 && float64(r.SimTime) > composedEnd }})
	return cells
}

// examplePlan reads the documented fault-plan file.
func examplePlan(t *testing.T) *FaultPlan {
	t.Helper()
	b, err := os.ReadFile("../../examples/faultplan.json")
	if err != nil {
		t.Fatal(err)
	}
	var plan FaultPlan
	if err := json.Unmarshal(b, &plan); err != nil {
		t.Fatal(err)
	}
	return &plan
}

// composedPlan runs every outage path of both kinds under KillAbort:
// node outages that overlap (the second skips the cells the first
// holds) and one that is permanent, a link list, a permanent row cut
// and a later list that names one of the cut links, and random
// failures of both kinds that reach their caps (6 node and 8 link
// failures; uncapped, the same run draws about 16 and 150).
func composedPlan() *FaultPlan {
	return &FaultPlan{Seed: 5, MTBF: 300000, MTTR: 3000, MaxFailures: 6, Policy: KillAbort,
		Outages: []Outage{
			{At: 3000, Duration: 6000, Region: mesh.SubAt(0, 0, 6, 6)},
			{At: 6000, Duration: 8000, Region: mesh.SubAt(4, 4, 6, 6)},
			{At: 10000, Region: mesh.SubAt(12, 18, 4, 4)},
		},
		Links: &LinkPlan{MTBF: 200000, MTTR: 2500, MaxFailures: 8, Outages: []LinkOutage{
			{At: 2000, Duration: 7000, Links: []LinkRef{{X: 3, Y: 7, Dir: "East"}, {X: 8, Y: 8, Dir: "South"}}},
			{At: 5000, Row: &LinkRow{Y: 11, Dir: "North"}},
			{At: 7000, Duration: 4000, Links: []LinkRef{{X: 5, Y: 11, Dir: "North"}, {X: 5, Y: 12, Dir: "West"}}},
		}},
	}
}

// lastOutageEnd is the latest start or bounded end of any outage of
// the plan, node or link.
func lastOutageEnd(p *FaultPlan) float64 {
	last := 0.0
	for _, o := range p.Outages {
		last = max(last, o.At+o.Duration)
	}
	if p.Links != nil {
		for _, o := range p.Links.Outages {
			last = max(last, o.At+o.Duration)
		}
	}
	return last
}

// paperRealCase is one cell of the paper's real workload: a paper
// pairing on the 16x22 mesh at one seed.
type paperRealCase struct {
	strategy, scheduler string
	seed                int64
}

func (c paperRealCase) String() string {
	return fmt.Sprintf("real/%s/%s/seed%d", c.strategy, c.scheduler, c.seed)
}

// paperRealMatrix lists the paper's six pairings (GABL, Paging(0), MBS
// under FCFS and SSD) at seeds 1-4.
func paperRealMatrix() []paperRealCase {
	var cases []paperRealCase
	for seed := int64(1); seed <= 4; seed++ {
		for _, sch := range []string{"FCFS", "SSD"} {
			for _, st := range []string{"GABL", "Paging(0)", "MBS"} {
				cases = append(cases, paperRealCase{st, sch, seed})
			}
		}
	}
	return cases
}

// runPaperReal runs a real-workload cell: the Paragon-model stream
// scaled to load 0.006, as core.RealTrace builds it, 200 jobs after 20
// warm-up. Its long jobs and deep queues give the network contention
// patterns the stochastic cells do not.
func runPaperReal(t *testing.T, c paperRealCase) Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Strategy, cfg.Scheduler = c.strategy, c.scheduler
	cfg.MaxCompleted, cfg.WarmupJobs = 200, 20
	cfg.Seed = c.seed
	spec := workload.DefaultParagon()
	spec.MeshW, spec.MeshL = cfg.MeshW, cfg.MeshL
	f := (1 / 0.006) / workload.ParagonMeanInterarrival(spec, c.seed)
	res, err := Run(cfg, workload.NewScaled(workload.NewParagonSource(spec, c.seed), f))
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return res
}

// resultDigest is the first 16 hex digits of the SHA-256 of the
// Result's %+v rendering: every field, floats at full precision.
func resultDigest(res Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
	return hex.EncodeToString(sum[:])[:16]
}

// pinnedResults maps each matrix cell to its Result digest.
var pinnedResults = map[string]string{
	"GABL/FCFS/mesh/32x32x1":             "db71b698786f7ce1",
	"GABL/FCFS/torus/32x32x1":            "b00b65a3a748512c",
	"GABL/FCFS/mesh/16x16x4":             "21fa81458bc22f99",
	"FirstFit/FCFS/mesh/32x32x1":         "c83474a4ab2c8c41",
	"FirstFit/FCFS/torus/32x32x1":        "3e8a2a4b38118778",
	"FirstFit/FCFS/mesh/16x16x4":         "3a86ac4fbd8c038c",
	"BestFit/FCFS/mesh/32x32x1":          "4969520359ee823a",
	"BestFit/FCFS/torus/32x32x1":         "e0a4f3214f898b3c",
	"BestFit/FCFS/mesh/16x16x4":          "fef1f824e139ffe3",
	"ANCA/FCFS/mesh/32x32x1":             "6a474cb22f32babd",
	"ANCA/FCFS/torus/32x32x1":            "56c163107e12d095",
	"ANCA/FCFS/mesh/16x16x4":             "4b4444fce57ddb36",
	"FrameSliding/FCFS/mesh/32x32x1":     "f0419dec2ace5b32",
	"FrameSliding/FCFS/torus/32x32x1":    "bd8b3f4bba37e155",
	"FrameSliding/FCFS/mesh/16x16x4":     "6c6184e0d0a0bd1c",
	"MBS/FCFS/mesh/32x32x1":              "325911c12a743c43",
	"MBS/FCFS/torus/32x32x1":             "325911c12a743c43",
	"Paging(0)/FCFS/mesh/32x32x1":        "4bf2057a4f243a4f",
	"Paging(0)/FCFS/torus/32x32x1":       "4bf2057a4f243a4f",
	"Paging(0)/FCFS/mesh/16x16x4":        "b7c1f1dbd747bf5b",
	"GABL/SSD/mesh/32x32x1":              "60d49848c0f6f2f5",
	"GABL/SSD/torus/32x32x1":             "0e3bc7e610d2bd2f",
	"GABL/SSD/mesh/16x16x4":              "21fa81458bc22f99",
	"FirstFit/SSD/mesh/32x32x1":          "a7f27d91bee67167",
	"FirstFit/SSD/torus/32x32x1":         "5fe4b1d23d6adca5",
	"FirstFit/SSD/mesh/16x16x4":          "37aa340d1f25f7ed",
	"BestFit/SSD/mesh/32x32x1":           "e5c59454a2121e2c",
	"BestFit/SSD/torus/32x32x1":          "6e034f8786027a3f",
	"BestFit/SSD/mesh/16x16x4":           "739268bf4e5580a8",
	"ANCA/SSD/mesh/32x32x1":              "aa44631e4cfbb06f",
	"ANCA/SSD/torus/32x32x1":             "5a278db57a5ad555",
	"ANCA/SSD/mesh/16x16x4":              "4b4444fce57ddb36",
	"FrameSliding/SSD/mesh/32x32x1":      "c40cdf3daa5f4dce",
	"FrameSliding/SSD/torus/32x32x1":     "2b87f2797e4322a0",
	"FrameSliding/SSD/mesh/16x16x4":      "9e8348452453babe",
	"MBS/SSD/mesh/32x32x1":               "4d864ac38e5e236f",
	"MBS/SSD/torus/32x32x1":              "4d864ac38e5e236f",
	"Paging(0)/SSD/mesh/32x32x1":         "8842dad14edea256",
	"Paging(0)/SSD/torus/32x32x1":        "8842dad14edea256",
	"Paging(0)/SSD/mesh/16x16x4":         "b7c1f1dbd747bf5b",
	"faulted/GABL/FCFS/mesh/32x32x1":     "5dffa65850e2d547",
	"faulted/FirstFit/SSD/torus/32x32x1": "af59313c30f0292e",
	"faulted/BestFit/FCFS/mesh/16x16x4":  "1f0302dfe940b280",
	"linkchurn/GABL/FCFS/mesh/16x22x1":   "810b7a01175385b2",
	"faultplan/GABL/FCFS/mesh/16x22x1":   "398c88811b45a75b",
	"composed/GABL/FCFS/mesh/16x22x1":    "dd4def8a868c797c",
	"real/GABL/FCFS/seed1":               "0d6f74c1771ee11f",
	"real/Paging(0)/FCFS/seed1":          "faddb1424383ad2b",
	"real/MBS/FCFS/seed1":                "5b896cdafd1aca87",
	"real/GABL/SSD/seed1":                "ae49fefe505b36a6",
	"real/Paging(0)/SSD/seed1":           "51d1c60acba3c08b",
	"real/MBS/SSD/seed1":                 "588cd8f6c3e1ff3c",
	"real/GABL/FCFS/seed2":               "710776d5338b1ac8",
	"real/Paging(0)/FCFS/seed2":          "097da0fc64a8f937",
	"real/MBS/FCFS/seed2":                "2d4f398abd0c0db6",
	"real/GABL/SSD/seed2":                "e3c6eb627b6a08bc",
	"real/Paging(0)/SSD/seed2":           "cfaf0f40166d5bbf",
	"real/MBS/SSD/seed2":                 "cb62ae75b8a4ed60",
	"real/GABL/FCFS/seed3":               "aaaa4a3936d20cc3",
	"real/Paging(0)/FCFS/seed3":          "86d80f4fafd65ed6",
	"real/MBS/FCFS/seed3":                "de40722f3893d90d",
	"real/GABL/SSD/seed3":                "730dfa5aca8bee69",
	"real/Paging(0)/SSD/seed3":           "c8eee29e41764e59",
	"real/MBS/SSD/seed3":                 "f78422dcfcbb8709",
	"real/GABL/FCFS/seed4":               "74cf884d2f2d2dd6",
	"real/Paging(0)/FCFS/seed4":          "98ac99b526da3778",
	"real/MBS/FCFS/seed4":                "282dff27d08a25cf",
	"real/GABL/SSD/seed4":                "6b55778c82d46b6e",
	"real/Paging(0)/SSD/seed4":           "fb4234b719246f7f",
	"real/MBS/SSD/seed4":                 "e1798fbe57dc057f",
}

// TestResultMatrixPinned runs every cell once and compares its Result
// digest with the committed table.
func TestResultMatrixPinned(t *testing.T) {
	got := map[string]Result{}
	for _, c := range resultMatrix() {
		res := runFaultCase(t, c, 150, nil)
		if res.Completed == 0 {
			t.Fatalf("%v completed no jobs", c)
		}
		got[c.String()] = res
	}
	for _, c := range faultCells(t) {
		res, err := Run(c.cfg, c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.teeth(res) {
			t.Fatalf("%s: fault plan idle, the cell has no teeth: %+v", c.name, res)
		}
		got[c.name] = res
	}
	for _, c := range paperRealMatrix() {
		res := runPaperReal(t, c)
		if res.Completed == 0 || res.PacketCount == 0 {
			t.Fatalf("%v completed %d jobs, %d packets", c, res.Completed, res.PacketCount)
		}
		got[c.String()] = res
	}

	for name, res := range got {
		want, ok := pinnedResults[name]
		if d := resultDigest(res); !ok || d != want {
			t.Errorf("%s: digest %s, pinned %q\n%+v", name, d, want, res)
		}
	}
	for name := range pinnedResults {
		if _, ok := got[name]; !ok {
			t.Errorf("pinned cell %s is not in the matrix", name)
		}
	}
}
