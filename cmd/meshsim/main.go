// Command meshsim runs one simulation of processor allocation and job
// scheduling on a wormhole-switched mesh — 2D, torus, or 3D via -depth
// — and prints the paper's five performance metrics.
//
// Examples:
//
//	meshsim -strategy GABL -scheduler SSD -workload uniform -load 0.002
//	meshsim -strategy MBS -workload real -load 0.0075
//	meshsim -strategy Paging(0) -workload trace -trace jobs.txt -load 0.01
//	meshsim -strategy GABL -width 16 -length 16 -depth 4 -workload uniform -load 0.002
//	meshsim -strategy GABL -faults examples/faultplan.json -json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		// The accepted strategy names come from the registry the factory
		// itself uses, so this usage text cannot drift from reality.
		strategy  = flag.String("strategy", "GABL", "allocation strategy: "+strings.Join(alloc.Strategies(), ", "))
		scheduler = flag.String("scheduler", "FCFS", "job scheduler: FCFS, SSD, SJF, LJF")
		wl        = flag.String("workload", "uniform", "workload: uniform, exp, real, trace")
		traceFile = flag.String("trace", "", "trace file (native format) for -workload trace")
		load      = flag.Float64("load", 0.002, "system load, jobs per time unit")
		jobs      = flag.Int("jobs", 1000, "completed jobs to measure")
		warmup    = flag.Int("warmup", 100, "initial completions excluded from statistics")
		meshW     = flag.Int("width", 16, "mesh width")
		meshL     = flag.Int("length", 22, "mesh length")
		meshH     = flag.Int("depth", 1, "mesh depth (planes); above 1 runs a 3D mesh with cuboid requests")
		ts        = flag.Float64("ts", 3, "router delay t_s in cycles")
		plen      = flag.Int("plen", 8, "packet length in flits")
		buffers   = flag.Int("buffers", 1, "router buffer depth in flits")
		numMes    = flag.Float64("nummes", core.NumMes, fmt.Sprintf("mean messages per processor of -workload trace (the other workloads always use %g)", core.NumMes))
		think     = flag.Float64("think", 0, "mean compute gap between sends")
		backfill  = flag.Int("backfill", 0, "aggressive backfilling depth (0 = paper semantics)")
		topology  = flag.String("topology", "mesh", "interconnect topology: mesh, torus (torus wraps routing AND placement)")
		pattern   = flag.String("pattern", "all-to-all", "communication pattern: all-to-all, one-to-all, all-to-one, random-pairs, near-neighbour")
		duration  = flag.Float64("duration", 0, "stop after this much workload time (0 = job-count stopping rule); with -duration and no explicit -jobs the run is purely time-bounded")
		timeScale = flag.Float64("time-scale", 1, "time compression: divide arrivals and compute demands by this factor, so a -duration horizon simulates in 1/factor the events' original timespan")
		startTime = flag.Float64("start-time", 0, "warm start: shift the workload to begin at this workload time and open the measurement window there")
		diPeriod  = flag.Float64("diurnal-period", 0, "period of the sinusoidal day/night arrival-rate cycle, in workload time units (0 = no modulation)")
		diAmp     = flag.Float64("diurnal-amplitude", 0, "relative amplitude of the day/night cycle in [0, 1): instantaneous rate swings between (1-a) and (1+a) times the mean")
		timeline  = flag.String("timeline", "", "write periodic metric snapshots (time, throughput, queue, utilization, P95s) to FILE; requires -duration")
		tlInt     = flag.Float64("timeline-interval", 0, "workload time between timeline snapshots (0 = duration/100)")
		tlFmt     = flag.String("timeline-format", "csv", "timeline format: csv, json (JSON lines)")
		seed      = flag.Int64("seed", 1, "random seed")
		faults    = flag.String("faults", "", "fault plan JSON file (see docs: seed, mtbf, mttr, max_failures, outages, policy, links)")
		mtbf      = flag.Float64("mtbf", 0, "per-node mean time between failures (0 = no random failures; overrides the plan file)")
		mttr      = flag.Float64("mttr", 0, "mean time to repair a failed node (0 = failures are permanent; overrides the plan file)")
		linkMTBF  = flag.Float64("link-mtbf", 0, "per-link mean time between failures (0 = no random link failures; overrides the plan file's links section)")
		linkMTTR  = flag.Float64("link-mttr", 0, "mean time to repair a failed link (0 = link failures are permanent; overrides the plan file's links section)")
		retries   = flag.Int("retries", -1, "max bounce-and-retry attempts before a packet is lost (-1 keeps the network default)")
		faultSeed = flag.Int64("fault-seed", 0, "seed of the failure schedule (overrides the plan file; independent of -seed)")
		killPol   = flag.String("kill-policy", "", "what happens to a job a failure lands in: requeue, abort (overrides the plan file)")
		jsonOut   = flag.Bool("json", false, "emit the run's metrics (and resilience block, when faulted) as JSON")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (post-run) to this file")
	)
	flag.Parse()
	// The flags set on the command line, as opposed to their defaults.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "meshsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "meshsim:", err)
			}
		}()
	}

	cfg := sim.DefaultConfig()
	cfg.MeshW, cfg.MeshL, cfg.MeshH = *meshW, *meshL, *meshH
	cfg.Strategy = *strategy
	cfg.Scheduler = *scheduler
	cfg.MaxCompleted = *jobs
	cfg.WarmupJobs = *warmup
	cfg.MaxQueued = 4 * *jobs
	cfg.Network.RouterDelay = *ts
	cfg.Network.PacketLen = *plen
	cfg.Network.BufferDepth = *buffers
	cfg.ThinkMean = *think
	cfg.BackfillDepth = *backfill
	if *retries >= 0 {
		cfg.Network.MaxRetries = *retries
	}
	cfg.Seed = *seed

	// Time-compression mode: -duration/-start-time/-timeline-interval
	// are in workload time units; dividing by -time-scale converts them
	// to the compressed engine clock the simulator runs on (the
	// workload itself is compressed by the same factor below).
	// The comparisons are written so that NaN fails them too.
	if !(*timeScale > 0) || math.IsInf(*timeScale, 1) {
		fmt.Fprintf(os.Stderr, "meshsim: -time-scale %g is invalid; the factor must be positive and finite\n", *timeScale)
		os.Exit(1)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"-duration", *duration}, {"-start-time", *startTime}, {"-think", *think},
		{"-ts", *ts}, {"-timeline-interval", *tlInt}, {"-diurnal-period", *diPeriod},
		{"-mtbf", *mtbf}, {"-mttr", *mttr}, {"-link-mtbf", *linkMTBF}, {"-link-mttr", *linkMTTR},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			fmt.Fprintf(os.Stderr, "meshsim: %s %g is invalid; it must be nonnegative and finite\n", f.name, f.v)
			os.Exit(1)
		}
	}
	switch {
	case !(*load > 0) || math.IsInf(*load, 1):
		// NaN fails the comparison too.
		fmt.Fprintf(os.Stderr, "meshsim: -load %g is invalid; the load must be positive and finite\n", *load)
		os.Exit(1)
	case set["nummes"] && *wl != "trace":
		fmt.Fprintf(os.Stderr, "meshsim: -nummes applies to -workload trace only; the %s workload always uses %g messages per processor\n", *wl, core.NumMes)
		os.Exit(1)
	case !(*numMes > 0) || math.IsInf(*numMes, 1):
		fmt.Fprintf(os.Stderr, "meshsim: -nummes %g is invalid; the mean must be positive and finite\n", *numMes)
		os.Exit(1)
	case *jobs < 0:
		fmt.Fprintf(os.Stderr, "meshsim: -jobs %d is invalid; jobs must be at least 0\n", *jobs)
		os.Exit(1)
	case *jobs == 0 && *duration <= 0 && *wl != "trace":
		// No job cap and no horizon: an endless stochastic source would
		// never stop. A trace is finite, so -jobs 0 replays all of it.
		fmt.Fprintln(os.Stderr, "meshsim: -jobs 0 needs a positive -duration to bound a stochastic workload (or -workload trace)")
		os.Exit(1)
	}
	cfg.Duration = *duration / *timeScale
	cfg.StartTime = *startTime / *timeScale
	if *duration > 0 && !set["jobs"] {
		// A time-bounded run keeps -jobs as a cap only when the user
		// asked for one; otherwise the horizon is the stopping rule.
		cfg.MaxCompleted = 0
	}
	var tlFlush func() error
	if *timeline != "" {
		if *duration <= 0 {
			fmt.Fprintln(os.Stderr, "meshsim: -timeline requires -duration (the snapshot chain needs a time bound)")
			os.Exit(1)
		}
		interval := *tlInt
		if interval <= 0 {
			interval = *duration / 100
		}
		f, err := os.Create(*timeline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		cfg.Timeline = &sim.TimelineConfig{
			Interval: interval / *timeScale,
			W:        bw,
			Format:   *tlFmt,
		}
		tlFlush = func() error {
			if err := bw.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	top, err := network.ParseTopology(*topology)
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshsim:", err)
		os.Exit(1)
	}
	cfg.Network.Topology = top
	// Inconsistent geometry fails fast with a pointed message instead of
	// silently ignoring the depth axis (sim.New double-checks the same
	// conditions for library callers).
	switch {
	case *meshH < 1:
		fmt.Fprintf(os.Stderr, "meshsim: -depth %d is invalid; depth must be at least 1\n", *meshH)
		os.Exit(1)
	case *meshH > 1 && top == network.TorusTopology:
		fmt.Fprintf(os.Stderr, "meshsim: -depth %d conflicts with -topology torus: the torus fabric is 2D-only; use -topology mesh or -depth 1\n", *meshH)
		os.Exit(1)
	case *meshH > 1 && slices.Contains(alloc.Strategies(), *strategy) && !alloc.Supports3D(*strategy):
		// Unknown names fall through to sim.New's "unknown strategy"
		// diagnostic; this branch is for real-but-planar strategies.
		fmt.Fprintf(os.Stderr, "meshsim: -depth %d conflicts with -strategy %s: the strategy is 2D-only; pick a 3D-capable strategy or -depth 1\n", *meshH, *strategy)
		os.Exit(1)
	case !(*diAmp >= 0 && *diAmp < 1):
		fmt.Fprintf(os.Stderr, "meshsim: -diurnal-amplitude %g is invalid; the amplitude must be in [0, 1)\n", *diAmp)
		os.Exit(1)
	case *diAmp > 0 && *diPeriod <= 0:
		fmt.Fprintf(os.Stderr, "meshsim: -diurnal-amplitude %g needs a positive -diurnal-period\n", *diAmp)
		os.Exit(1)
	}
	pat, err := sim.ParsePattern(*pattern)
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshsim:", err)
		os.Exit(1)
	}
	cfg.Pattern = pat

	plan, err := buildFaultPlan(*faults, *mtbf, *mttr, *linkMTBF, *linkMTTR, *faultSeed, *killPol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshsim:", err)
		os.Exit(1)
	}
	cfg.Faults = plan

	src, err := buildSource(*wl, *traceFile, cfg, *load, *numMes, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshsim:", err)
		os.Exit(1)
	}
	src = wrapTime(src, *startTime, *timeScale, *diPeriod, *diAmp)

	res, err := sim.Run(cfg, src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshsim:", err)
		os.Exit(1)
	}
	if tlFlush != nil {
		if err := tlFlush(); err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
	}

	var resil *report.Resilience
	if plan.Active() {
		// Twin run: identical workload and seeds, no faults — the
		// utilization delta is the price of the failures, computed in
		// this one invocation.
		baseCfg := cfg
		baseCfg.Faults = nil
		baseCfg.Timeline = nil // the snapshots describe the faulted run
		baseSrc, err := buildSource(*wl, *traceFile, baseCfg, *load, *numMes, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		baseSrc = wrapTime(baseSrc, *startTime, *timeScale, *diPeriod, *diAmp)
		base, err := sim.Run(baseCfg, baseSrc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		resil = &report.Resilience{
			FailureRate:         res.FailureRate,
			MeanPinned:          res.MeanPinned,
			AvailLoss:           res.AvailLoss,
			Utilization:         res.Utilization,
			BaselineUtilization: base.Utilization,
			UtilizationLoss:     base.Utilization - res.Utilization,
			Failures:            res.Failures,
			Recoveries:          res.Recoveries,
			JobsKilled:          res.JobsKilled,
			JobsRequeued:        res.JobsRequeued,
			JobsAborted:         res.JobsAborted,
			LostWork:            res.LostWork,
			P95Wait:             res.P95Wait,
			LinkFailures:        res.LinkFailures,
			LinkRecoveries:      res.LinkRecoveries,
			Reroutes:            res.Reroutes,
			PacketRetries:       res.PacketRetries,
			PacketsSent:         res.PacketsSent,
			PacketsDelivered:    res.PacketsDelivered,
			PacketsLost:         res.PacketsLost,
			Latency:             res.MeanLatency,
			BaselineLatency:     base.MeanLatency,
		}
		if res.PacketsSent > 0 {
			resil.DeliveryRate = float64(res.PacketsDelivered) / float64(res.PacketsSent)
		}
		if base.MeanLatency > 0 {
			resil.LatencyInflation = res.MeanLatency/base.MeanLatency - 1
		}
	}

	if *jsonOut {
		out := struct {
			Result     sim.Result         `json:"result"`
			Resilience *report.Resilience `json:"resilience,omitempty"`
		}{res, resil}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("strategy            %s(%s)\n", cfg.Strategy, cfg.Scheduler)
	fmt.Printf("workload            %s, load %g jobs/cycle, pattern %s\n",
		src.Name(), *load, cfg.Pattern)
	geom := fmt.Sprintf("%dx%d", cfg.MeshW, cfg.MeshL)
	if cfg.MeshH > 1 {
		geom = fmt.Sprintf("%dx%dx%d", cfg.MeshW, cfg.MeshL, cfg.MeshH)
	}
	fmt.Printf("network             %s %s, t_s=%g, P_len=%d, buffers=%d\n",
		geom, cfg.Network.Topology, *ts, *plen, *buffers)
	if *duration > 0 || *startTime > 0 || *timeScale != 1 {
		fmt.Printf("time window         start %g, duration %g, time-scale %g\n",
			*startTime, *duration, *timeScale)
	}
	fmt.Printf("completed jobs      %d (sim time %.0f)\n", res.Completed, res.SimTime)
	fmt.Printf("turnaround time     %.1f\n", res.MeanTurnaround)
	fmt.Printf("service time        %.1f\n", res.MeanService)
	fmt.Printf("utilization         %.3f\n", res.Utilization)
	fmt.Printf("packet latency      %.2f (over %d packets)\n", res.MeanLatency, res.PacketCount)
	fmt.Printf("packet blocking     %.2f\n", res.MeanBlocking)
	fmt.Printf("queue wait          %.1f (mean queue length %.1f)\n", res.MeanWait, res.MeanQueueLen)
	fmt.Printf("sub-meshes per job  %.2f (topology %s)\n", res.MeanPieces, cfg.Network.Topology)
	if resil != nil {
		if err := resil.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "meshsim:", err)
			os.Exit(1)
		}
	}
	if res.Saturated {
		fmt.Println("NOTE: run hit the backlog bound (saturated load); means are saturation values")
	}
}

// buildFaultPlan loads the plan file (when given) and overlays the
// quick flags on top — node flags onto the plan body, link flags onto
// its links section; a nil return means a fault-free run. Plan
// geometry is validated by sim.New against the actual mesh.
func buildFaultPlan(file string, mtbf, mttr, linkMTBF, linkMTTR float64, seed int64, policy string) (*sim.FaultPlan, error) {
	var plan sim.FaultPlan
	if file != "" {
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &plan); err != nil {
			return nil, fmt.Errorf("%s: %v", file, err)
		}
	}
	if mtbf > 0 {
		plan.MTBF = mtbf
	}
	if mttr > 0 {
		plan.MTTR = mttr
	}
	if linkMTBF > 0 || linkMTTR > 0 {
		if plan.Links == nil {
			plan.Links = &sim.LinkPlan{}
		}
		if linkMTBF > 0 {
			plan.Links.MTBF = linkMTBF
		}
		if linkMTTR > 0 {
			plan.Links.MTTR = linkMTTR
		}
	}
	if seed != 0 {
		plan.Seed = seed
	}
	if policy != "" {
		plan.Policy = sim.KillPolicy(policy)
	}
	if !plan.Active() {
		if file == "" && mtbf == 0 && mttr == 0 && linkMTBF == 0 && linkMTTR == 0 && seed == 0 && policy == "" {
			return nil, nil // no fault flags at all: fault-free run
		}
		if file == "" {
			return nil, fmt.Errorf("fault flags given but no failure source: set -mtbf or -link-mtbf, or provide outages via -faults FILE")
		}
	}
	return &plan, nil
}

func buildSource(kind, traceFile string, cfg sim.Config, load, numMes float64, seed int64) (workload.Source, error) {
	switch kind {
	case "uniform":
		return core.StochasticUniform.Source(cfg.MeshW, cfg.MeshL, cfg.MeshH, load, seed), nil
	case "exp":
		return core.StochasticExp.Source(cfg.MeshW, cfg.MeshL, cfg.MeshH, load, seed), nil
	case "real":
		return core.RealTrace.Source(cfg.MeshW, cfg.MeshL, cfg.MeshH, load, seed), nil
	case "trace":
		if traceFile == "" {
			return nil, fmt.Errorf("-workload trace requires -trace FILE")
		}
		// Two-pass streaming protocol: a stat scan (O(1) memory, no rng
		// draws) validates the file and yields the load-scaling factor,
		// then the chunked reader streams the jobs behind the running
		// simulation. Traces whose records are out of arrival order fall
		// back to the materialized reader, which sorts.
		st, err := workload.ScanTraceFile(traceFile, cfg.MeshW, cfg.MeshL, 0)
		if err != nil {
			return nil, err
		}
		depth := cfg.MeshH
		if depth < 1 {
			depth = 1
		}
		if st.MaxDepth > depth {
			return nil, fmt.Errorf("trace requests depth %d but the mesh has %d plane(s); raise -depth or regenerate the trace",
				st.MaxDepth, depth)
		}
		if st.Jobs < 2 {
			return nil, fmt.Errorf("trace %s has %d usable job(s); need at least 2 to scale the load", traceFile, st.Jobs)
		}
		if st.Ordered {
			f2 := (1 / load) / st.MeanInterarrival()
			ts, err := workload.OpenTraceSource(traceFile, cfg.MeshW, cfg.MeshL, numMes, stats.NewStream(seed), 0)
			if err != nil {
				return nil, err
			}
			return workload.NewScaled(ts, f2), nil
		}
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		jobs, err := workload.ReadTrace(f, cfg.MeshW, cfg.MeshL, numMes, stats.NewStream(seed))
		if err != nil {
			return nil, err
		}
		f2 := (1 / load) / workload.MeanInterarrival(jobs)
		return workload.NewSliceSource(traceFile, workload.ScaleArrivals(jobs, f2)), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", kind)
	}
}

// wrapTime stacks the diurnal, warm-start and time-compression
// wrappers on a load-scaled source: the day/night modulation warps
// arrivals in workload time first (its period is a workload-time
// quantity), then arrivals shift by the start offset, then arrivals
// AND compute demands divide by the scale — matching the engine-unit
// conversion of cfg.StartTime and cfg.Duration, so a job arriving at
// workload time t arrives at engine time (t+start)/scale.
func wrapTime(src workload.Source, start, scale, diPeriod, diAmp float64) workload.Source {
	if diAmp > 0 {
		src = workload.NewDiurnal(src, diPeriod, diAmp)
	}
	if start > 0 {
		src = workload.NewShifted(src, start)
	}
	if scale != 1 {
		src = workload.NewCompressed(src, scale)
	}
	return src
}
