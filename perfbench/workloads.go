package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// cell is one simulation inside a workload rep: a fixed strategy ×
// scheduler or fabric, with a job source drawn from the run's seed.
type cell struct {
	name string
	cfg  sim.Config
	// comm is true when the cell's jobs communicate, so a run that
	// sends no packets (or any packet on a zero-communication cell) is
	// wrong.
	comm bool
	// source builds the cell's job stream. It is part of the timed
	// set-up: for the trace workload it scans and opens the trace file.
	source func() (workload.Source, error)
}

// workloadDef is one named input set of the benchmark.
type workloadDef struct {
	name string
	why  string
	// prepare writes inputs every rep of a run shares (the trace file)
	// into dir; nil when the cells need none. It is input generation,
	// not set-up of the system, so it is never timed.
	prepare func(seed int64, short bool, dir string) error
	cells   func(seed int64, short bool, dir string) []cell
}

// workloads is the benchmark's workload list, in BENCHMARK.json order.
var workloads = []workloadDef{
	{
		name: "paper_stochastic",
		why:  "the paper's stochastic workload on the 16x22 mesh: all-to-all packets make DES and network most of the host time, mesh search is negligible",
		cells: func(seed int64, short bool, _ string) []cell {
			jobs := pick(short, 100, 40)
			return paperCells("paper_stochastic", seed, jobs, func(cs int64) func() (workload.Source, error) {
				return func() (workload.Source, error) {
					return workload.NewStochastic3D(stats.NewStream(cs), paperW, paperL, 1,
						workload.UniformSides, stochasticLoad, numMes), nil
				}
			})
		},
	},
	{
		name: "paper_real_trace",
		why:  "the paper's real workload: a Paragon-model trace file replayed as meshsim does, heavy-tailed sizes with compute demand; the trace scan makes set-up a real cost",
		prepare: func(seed int64, short bool, dir string) error {
			spec := workload.DefaultParagon()
			spec.Jobs = pick(short, 100000, 5000)
			return renderTrace(filepath.Join(dir, traceFile), workload.NewParagonSource(spec, seed))
		},
		cells: func(seed int64, short bool, dir string) []cell {
			jobs := pick(short, 200, 60)
			path := filepath.Join(dir, traceFile)
			return paperCells("paper_real_trace", seed, jobs, func(cs int64) func() (workload.Source, error) {
				return func() (workload.Source, error) { return openTrace(path, cs) }
			})
		},
	},
	{
		name: "fabric_search",
		why:  "zero-communication allocation stress on planar, torus and 3D fabrics: mesh searches are nearly all the host time and the network is never built",
		cells: func(seed int64, short bool, _ string) []cell {
			// Each cell runs many jobs at a load where few allocation
			// attempts fail, so host time per job barely depends on the
			// seed; large-mesh searches are timed by the probes.
			specs := []struct {
				name     string
				w, l, h  int
				torus    bool
				strategy string
				rate     float64
				jobs     int
			}{
				{"mesh128.BestFit", 128, 128, 1, false, "BestFit", 0.03, pick(short, 800, 40)},
				{"torus64.BestFit", 64, 64, 1, true, "BestFit", 0.03, pick(short, 500, 40)},
				{"mesh256.GABL", 256, 256, 1, false, "GABL", 0.07, pick(short, 8000, 300)},
				{"mesh32x32x8.GABL", 32, 32, 8, false, "GABL", 0.07, pick(short, 100000, 3000)},
			}
			cells := make([]cell, len(specs))
			for i, s := range specs {
				cs := cellSeed("fabric_search", seed, i)
				cfg := sim.DefaultConfig()
				cfg.MeshW, cfg.MeshL, cfg.MeshH = s.w, s.l, s.h
				if s.torus {
					cfg.Network.Topology = network.TorusTopology
				}
				cfg.Strategy = s.strategy
				cfg.MaxCompleted, cfg.WarmupJobs, cfg.MaxQueued = s.jobs, s.jobs/10, 4*s.jobs
				cfg.Seed = cs
				cells[i] = cell{name: s.name, cfg: cfg, source: allocStress(cs, s.w, s.l, s.h, s.rate)}
			}
			return cells
		},
	},
	{
		name: "stream_churn",
		why:  "a long streamed FirstFit run on a 64x64 mesh with node faults: allocate/release span flips, fail/recover pins and source draws beside a cheap search",
		cells: func(seed int64, short bool, _ string) []cell {
			cs := cellSeed("stream_churn", seed, 0)
			cfg := sim.DefaultConfig()
			cfg.MeshW, cfg.MeshL = 64, 64
			cfg.Strategy = "FirstFit"
			cfg.MaxCompleted, cfg.WarmupJobs, cfg.MaxQueued = pick(short, 400000, 20000), 0, 4096
			cfg.Seed = cs
			cfg.Faults = &sim.FaultPlan{Seed: cs + 1, MTBF: 2e7, MTTR: 2000, Policy: sim.KillRequeue}
			return []cell{{name: "mesh64.FirstFit.faults", cfg: cfg, source: allocStress(cs, 64, 64, 1, 0.07)}}
		},
	},
}

// The paper's set-up (§5): a 16x22 mesh, num_mes 5, and loads just
// below the knee of each workload's turnaround curve, where queues are
// deep but the runs do not saturate.
const (
	paperW, paperL = 16, 22
	numMes         = 5.0
	stochasticLoad = 0.003
	traceLoad      = 0.006
	traceFile      = "trace.txt"
)

// paperCombos are the paper's six strategy × scheduler pairings.
var paperCombos = []struct{ strategy, scheduler string }{
	{"GABL", "FCFS"}, {"Paging(0)", "FCFS"}, {"MBS", "FCFS"},
	{"GABL", "SSD"}, {"Paging(0)", "SSD"}, {"MBS", "SSD"},
}

// paperCells builds the six paper cells, each on its own job stream.
func paperCells(wl string, seed int64, jobs int, source func(cellSeed int64) func() (workload.Source, error)) []cell {
	cells := make([]cell, len(paperCombos))
	for i, c := range paperCombos {
		cs := cellSeed(wl, seed, i)
		cfg := sim.DefaultConfig()
		cfg.Strategy, cfg.Scheduler = c.strategy, c.scheduler
		cfg.MaxCompleted, cfg.WarmupJobs = jobs, jobs/10
		cfg.Seed = cs
		name := strings.NewReplacer("(", "", ")", "").Replace(c.strategy) + "-" + c.scheduler
		cells[i] = cell{name: name, cfg: cfg, comm: true, source: source(cs)}
	}
	return cells
}

// setUp builds the cell's source and its simulator, which takes the
// source through wrap. It returns the source as built, before wrap.
func (c cell) setUp(wrap func(workload.Source) workload.Source) (*sim.Simulator, workload.Source, error) {
	src, err := c.source()
	if err != nil {
		return nil, nil, err
	}
	s, err := sim.New(c.cfg, wrap(src))
	return s, src, err
}

func allocStress(seed int64, w, l, h int, rate float64) func() (workload.Source, error) {
	return func() (workload.Source, error) {
		return workload.NewAllocStress3D(stats.NewStream(seed), w, l, h, rate, 100), nil
	}
}

// openTrace replays a trace file exactly as `meshsim -workload trace`
// does: a validating scan, then the chunked reader scaled to the load.
func openTrace(path string, seed int64) (workload.Source, error) {
	st, err := workload.ScanTraceFile(path, paperW, paperL, 0)
	if err != nil {
		return nil, err
	}
	if !st.Ordered || st.Jobs < 2 || st.MaxDepth > 1 {
		return nil, fmt.Errorf("trace %s: %d jobs, ordered %v, depth %d: want an ordered planar trace", path, st.Jobs, st.Ordered, st.MaxDepth)
	}
	ts, err := workload.OpenTraceSource(path, paperW, paperL, numMes, stats.NewStream(seed), 0)
	if err != nil {
		return nil, err
	}
	return traceSource{workload.NewScaled(ts, (1/traceLoad)/st.MeanInterarrival()), ts}, nil
}

// traceSource is the scaled trace stream. Close releases the file of a
// stream that is set up but never run.
type traceSource struct {
	*workload.Scaled
	file *workload.TraceSource
}

func (t traceSource) Close() error { return t.file.Close() }

func renderTrace(path string, src workload.Source) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := workload.WriteTraceStream(f, src, false); err != nil {
		f.Close()
		return fmt.Errorf("render trace: %w", err)
	}
	return f.Close()
}

// cellSeed derives a well-separated seed for one cell of one workload.
func cellSeed(wl string, seed int64, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", wl, seed, i)
	return int64(h.Sum64() >> 1)
}

func pick(short bool, full, small int) int {
	if short {
		return small
	}
	return full
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// check returns why a finished cell's result is wrong, or nil. The
// model has no reference numbers to match, so these are the
// invariants every correct run keeps; bit-identity against other reps
// and the pinned digests is checked by the caller.
func (c cell) check(r sim.Result) error {
	contiguous := c.cfg.Strategy == "FirstFit" || c.cfg.Strategy == "BestFit"
	switch {
	case c.cfg.MaxCompleted > 0 && r.Completed != c.cfg.MaxCompleted:
		return fmt.Errorf("completed %d of %d jobs", r.Completed, c.cfg.MaxCompleted)
	case r.Saturated:
		return fmt.Errorf("saturated: the queue hit %d jobs", c.cfg.MaxQueued)
	case !(r.Utilization > 0 && r.Utilization <= 1):
		return fmt.Errorf("utilization %v outside (0, 1]", r.Utilization)
	case r.MeanPieces < 1 || (contiguous && r.MeanPieces != 1):
		return fmt.Errorf("mean pieces %v for %s", r.MeanPieces, c.cfg.Strategy)
	case !contiguous && r.ExternalFragRate != 0:
		return fmt.Errorf("external fragmentation %v for non-contiguous %s", r.ExternalFragRate, c.cfg.Strategy)
	case c.comm != (r.PacketsSent > 0):
		return fmt.Errorf("%d packets sent, want communication %v", r.PacketsSent, c.comm)
	case r.PacketsLost != 0 || r.PacketsDelivered > r.PacketsSent:
		return fmt.Errorf("packets sent %d, delivered %d, lost %d", r.PacketsSent, r.PacketsDelivered, r.PacketsLost)
	case c.cfg.Faults != nil && (r.Failures == 0 || r.JobsKilled == 0):
		return fmt.Errorf("fault plan produced %d failures and %d kills", r.Failures, r.JobsKilled)
	}
	return nil
}

// digest hashes every field of a result that a speed-only change must
// leave bit-identical. Fields are listed explicitly so that adding a
// field to sim.Result does not move the pinned digests.
func digest(r sim.Result) string {
	h := sha256.New()
	for _, v := range []float64{
		float64(r.Completed), r.SimTime, r.MeanTurnaround, r.MeanService, r.Utilization,
		r.MeanBlocking, r.MeanLatency, r.P95Turnaround, r.MeanWait, r.P95Wait, r.MeanPieces,
		float64(r.PacketCount), r.MeanQueueLen, r.ExternalFragRate, r.InternalFrag,
		float64(r.Failures), float64(r.Recoveries), float64(r.JobsKilled), float64(r.JobsRequeued),
		float64(r.JobsAborted), r.LostWork, r.MeanPinned, r.AvailLoss, r.FailureRate,
		float64(r.PacketsSent), float64(r.PacketsDelivered), float64(r.PacketsLost),
		float64(r.LinkFailures), float64(r.LinkRecoveries), float64(r.Reroutes), float64(r.PacketRetries),
	} {
		h.Write(strconv.AppendFloat(nil, v, 'g', -1, 64))
		h.Write([]byte{';'})
	}
	if r.Saturated {
		h.Write([]byte("saturated"))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
