package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// cellResult is what one cell of a rep reports.
type cellResult struct {
	Name    string `json:"name"`
	Err     string `json:"err,omitempty"`
	Digest  string `json:"digest,omitempty"`
	SetupNs int64  `json:"setup_ns"`
	RunNs   int64  `json:"run_ns"`
	// Items is the simulated work of the cell: jobs completed (warm-up
	// included) plus packets sent. Host time per item is steady across
	// seeds, where host time per job swings with the drawn job sizes.
	Items int64 `json:"items"`
	// CPUNs, AllocBytes and GCCycles cover the set-up that ran and the
	// run: process CPU time (GC workers included), heap bytes allocated
	// and GC cycles completed.
	CPUNs      int64       `json:"cpu_ns"`
	AllocBytes uint64      `json:"alloc_bytes"`
	GCCycles   uint32      `json:"gc_cycles"`
	Stats      resultStats `json:"stats"`
	// NextCalls and NextNs are the timing Source's counters (traced reps).
	NextCalls int64 `json:"next_calls,omitempty"`
	NextNs    int64 `json:"next_ns,omitempty"`
}

// resultStats are the sim.Result fields the per-layer metrics report.
type resultStats struct {
	Completed   int     `json:"completed"`
	Turnaround  float64 `json:"turnaround"`
	Utilization float64 `json:"utilization"`
	Wait        float64 `json:"wait"`
	QueueLen    float64 `json:"queue_len"`
	Pieces      float64 `json:"pieces"`
	ExtFrag     float64 `json:"ext_frag"`
	PacketsSent int64   `json:"packets_sent"`
	PacketCount int64   `json:"packet_count"`
	Latency     float64 `json:"latency"`
	Blocking    float64 `json:"blocking"`
	Failures    int64   `json:"failures"`
	JobsKilled  int64   `json:"jobs_killed"`
}

// repResult is one rep: every cell of a workload run once, back to back
// on one goroutine, in a process of its own.
type repResult struct {
	Cells []cellResult `json:"cells"`
	// ProfileNs is CPU time per layer from the traced rep's profile.
	ProfileNs map[string]int64 `json:"profile_ns,omitempty"`
	Spans     []span           `json:"spans,omitempty"`
	// KernelNs is the reference kernel's time, the mean of a run before
	// and one after the cells (hostspeed.go).
	KernelNs int64 `json:"kernel_ns"`
	// MaxRSSKB is the child's peak resident set, filled in by the parent.
	MaxRSSKB int64 `json:"max_rss_kb"`
}

// hostScale is refKernelNs over the measured kernel time: the factor
// that takes the rep's timings to a quiet host's.
func (r repResult) hostScale() float64 {
	if r.KernelNs <= 0 {
		return 1
	}
	return refKernelNs / float64(r.KernelNs)
}

// sum adds up one field over the cells.
func (r repResult) sum(f func(cellResult) int64) int64 {
	var n int64
	for _, c := range r.Cells {
		n += f(c)
	}
	return n
}

// repOptions select how a rep runs.
type repOptions struct {
	traced  bool // CPU profile, timing Source and spans
	workers int  // sharded search workers; 0 keeps the serial searches
}

// runRep runs every cell once. A cell that fails records its error and
// the rep moves on, so one broken cell cannot hide the others.
func runRep(cells []cell, opt repOptions) (repResult, error) {
	var rep repResult
	kernel := refKernel()
	rec := newRecorder(opt.traced)
	repeats := setupRepeats
	if opt.workers > 1 {
		// A discarded simulator would leak its search workers.
		repeats = 1
	}
	for _, c := range cells {
		if opt.workers > 1 && !setWorkers(&c.cfg, opt.workers) {
			return rep, fmt.Errorf("the simulator has no Workers setting")
		}
		cr, err := runCell(c, rec, repeats)
		if err != nil {
			return rep, err
		}
		rep.Cells = append(rep.Cells, cr)
	}
	if opt.traced {
		rep.ProfileNs = rec.profileNs
		rep.Spans = append(rec.spans, span{Name: "rep", EndNs: int64(time.Since(rec.t0))})
	}
	rep.KernelNs = (kernel + refKernel()) / 2
	return rep, nil
}

// setupRepeats is how often each cell is set up. Its set-up time is
// the median, so that a one-off page fault or timer tick does not move
// setup_s; only the last set-up runs.
const setupRepeats = 3

// runCell sets one cell up and runs it. Set-up is the source build
// (the trace scan included) plus sim.New; run is sim.Run. The error is
// the recorder's; the cell's own failure is in its result.
func runCell(c cell, rec *recorder, repeats int) (cellResult, error) {
	out := cellResult{Name: c.name}
	noWrap := func(src workload.Source) workload.Source { return src }
	var times []float64
	for i := 1; i < repeats; i++ {
		t0 := time.Now()
		_, src, err := c.setUp(noWrap)
		times = append(times, float64(time.Since(t0)))
		if cl, ok := src.(io.Closer); ok {
			cl.Close()
		}
		if err != nil {
			out.Err = "set-up: " + err.Error()
			return out, nil
		}
	}

	var ts *timedSource
	wrap := noWrap
	if rec.on {
		wrap = func(src workload.Source) workload.Source {
			ts = &timedSource{src: src}
			return ts
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNs()
	setup := rec.begin("setup/" + c.name)
	s, _, err := c.setUp(wrap)
	times = append(times, float64(rec.end(setup, nil)))
	out.SetupNs = int64(median(times))
	if err != nil {
		out.Err = "set-up: " + err.Error()
		return out, nil
	}
	var res sim.Result
	perr := rec.profile(func() {
		run := rec.begin("run/" + c.name)
		res, err = s.Run()
		var counters map[string]int64
		if ts != nil {
			out.NextCalls, out.NextNs = ts.calls, ts.ns
			counters = map[string]int64{"next_calls": ts.calls, "next_ns": ts.ns}
		}
		out.RunNs = rec.end(run, counters)
	})
	if perr != nil {
		return out, perr
	}
	out.CPUNs = cpuNs() - cpu0
	runtime.ReadMemStats(&m1)
	out.AllocBytes, out.GCCycles = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	if err == nil {
		err = c.check(res)
	}
	if err != nil {
		out.Err = err.Error()
		return out, nil
	}
	out.Digest = digest(res)
	out.Items = int64(res.Completed+c.cfg.WarmupJobs) + res.PacketsSent
	out.Stats = resultStats{
		Completed: res.Completed, Turnaround: res.MeanTurnaround, Utilization: res.Utilization,
		Wait: res.MeanWait, QueueLen: res.MeanQueueLen, Pieces: res.MeanPieces,
		ExtFrag: res.ExternalFragRate, PacketsSent: res.PacketsSent, PacketCount: res.PacketCount,
		Latency: res.MeanLatency, Blocking: res.MeanBlocking, Failures: res.Failures,
		JobsKilled: res.JobsKilled,
	}
	return out, nil
}

// cpuNs is the CPU time, user and system, this process has used.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// setWorkers sets sim.Config.Workers, the sharded search executor's
// worker count. It goes through reflection because the executor is a
// candidate for removal if it shows no speed-up; without it the
// benchmark still builds and reports a speed-up of 1.
func setWorkers(cfg *sim.Config, n int) bool {
	f := reflect.ValueOf(cfg).Elem().FieldByName("Workers")
	if !f.IsValid() || f.Kind() != reflect.Int {
		return false
	}
	f.SetInt(int64(n))
	return true
}

// timedSource times every Next call of the source it wraps. It forwards
// Err, so a stream that ends on an error still fails the run instead
// of looking like a clean drain.
type timedSource struct {
	src       workload.Source
	calls, ns int64
}

func (t *timedSource) Next() (workload.Job, bool) {
	t0 := time.Now()
	j, ok := t.src.Next()
	t.ns += int64(time.Since(t0))
	t.calls++
	return j, ok
}

func (t *timedSource) Name() string { return t.src.Name() }

func (t *timedSource) Err() error { return workload.SourceErr(t.src) }
