package sim

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// TestEventsPerPacket is a count gate on the event cost of a packet on
// the paper's GABL/FCFS cell (16x22, uniform sides, load 0.003, num_mes
// 5, seed 1, 100 jobs after 10 warm-up). A packet's header takes one
// event per channel it acquires, and its tail drain would take one more
// per trailing channel, but the network elides every tail-drain release
// that no header waits for. Eager releases cost about 13.1 events per
// packet on this cell, lazy ones about 8.5. The count is deterministic,
// so the gate cannot flake.
func TestEventsPerPacket(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCompleted, cfg.WarmupJobs = 100, 10
	cfg.Seed = 1
	s, err := New(cfg, workload.NewStochastic(stats.NewStream(1), 16, 22, workload.UniformSides, 0.003, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsSent == 0 {
		t.Fatal("the cell sent no packets")
	}
	perPacket := float64(s.eng.Executed()) / float64(res.PacketsSent)
	t.Logf("%d events, %d packets: %.2f events per packet", s.eng.Executed(), res.PacketsSent, perPacket)
	if perPacket >= 9.5 {
		t.Fatalf("%.2f events per packet, want below 9.5", perPacket)
	}
}
