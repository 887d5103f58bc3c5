package sim

import (
	"testing"

	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/workload"
)

// steadyCell is one configuration of the steady-state allocation gate.
type steadyCell struct {
	name string
	cfg  Config
	src  workload.Source
}

// steadyCells are the gate's cells: the paper's 16x22 all-to-all cells
// at load 0.003 for GABL, Paging(0) and MBS, a zero-communication
// 64x64 FirstFit stream under node faults, and all-to-all GABL on the
// 16x22 torus and on an 8x8x4 mesh.
func steadyCells() []steadyCell {
	paper := func(strategy string) steadyCell {
		cfg := DefaultConfig()
		cfg.Strategy = strategy
		return steadyCell{"paper16x22/" + strategy, cfg,
			workload.NewStochastic(stats.NewStream(1), 16, 22, workload.UniformSides, 0.003, 5)}
	}
	churn := DefaultConfig()
	churn.MeshW, churn.MeshL = 64, 64
	churn.Strategy = "FirstFit"
	churn.MaxQueued = 4096
	churn.Faults = &FaultPlan{Seed: 2, MTBF: 2e7, MTTR: 2000, Policy: KillRequeue}
	torus := DefaultConfig()
	torus.Network.Topology = network.TorusTopology
	cube := DefaultConfig()
	cube.MeshW, cube.MeshL, cube.MeshH = 8, 8, 4
	return []steadyCell{
		paper("GABL"), paper("Paging(0)"), paper("MBS"),
		{"mesh64x64/FirstFit/faults", churn,
			workload.NewAllocStress3D(stats.NewStream(1), 64, 64, 1, 0.07, 100)},
		{"torus16x22/GABL", torus,
			workload.NewStochastic(stats.NewStream(1), 16, 22, workload.UniformSides, 0.003, 5)},
		{"mesh8x8x4/GABL", cube,
			workload.NewStochastic3D(stats.NewStream(1), 8, 8, 4, workload.UniformSides, 0.01, 5)},
	}
}

// items counts the simulated items so far: completed jobs plus sent
// packets.
func (s *Simulator) items() int {
	n := s.completed
	if s.net != nil {
		n += int(s.net.Sent())
	}
	return n
}

// TestSteadyStateUnderOneAllocPerItem steps each cell past a warm-up
// and then holds it to fewer than one heap allocation per simulated
// item (a completed job or a sent packet). Packets reuse their
// sender's record and path buffer, pooled job states and senders carry
// their buffers, and the allocators recycle their piece lists, so what
// remains is the states minted while a queue still grows.
func TestSteadyStateUnderOneAllocPerItem(t *testing.T) {
	const warm, batch, runs = 50000, 2000, 20
	for _, c := range steadyCells() {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.MaxCompleted = 0 // the test steps the run past any job count
			s, err := New(cfg, c.src)
			if err != nil {
				t.Fatal(err)
			}
			s.begin()
			advance := func(n int) {
				for goal := s.items() + n; s.items() < goal; {
					if s.done || !s.eng.Step() {
						t.Fatalf("run stopped after %d items (saturated %v)", s.items(), s.saturated)
					}
				}
			}
			advance(warm)
			perBatch := testing.AllocsPerRun(runs, func() { advance(batch) })
			t.Logf("%.4f allocations per item", perBatch/batch)
			if perBatch >= batch {
				t.Errorf("%v allocations per %d items, want fewer than one per item", perBatch, batch)
			}
		})
	}
}
