package main

// perLayer lists the per-layer metrics, the same names on every
// workload. README.md says which end-to-end metric each should move and
// on which workload.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range profiledLayers {
		out = append(out,
			metricDef{Name: l + ".self_s", Unit: "s", Better: "lower"},
			metricDef{Name: l + ".self_share", Unit: "ratio", Better: "lower"})
	}
	out = append(out,
		metricDef{Name: "workload.next_calls", Unit: "count", Better: "lower"},
		metricDef{Name: "workload.next_ns_mean", Unit: "ns", Better: "lower"},
		metricDef{Name: "sim.jobs_completed", Unit: "count", Better: "higher"},
		metricDef{Name: "sim.turnaround_mean", Unit: "cycles", Better: "lower"},
		metricDef{Name: "sim.utilization", Unit: "ratio", Better: "higher"},
		metricDef{Name: "sched.wait_mean", Unit: "cycles", Better: "lower"},
		metricDef{Name: "sched.queue_len_mean", Unit: "jobs", Better: "lower"},
		metricDef{Name: "alloc.pieces_mean", Unit: "count", Better: "lower"},
		metricDef{Name: "alloc.ext_frag_rate", Unit: "ratio", Better: "lower"},
		metricDef{Name: "network.packets_sent", Unit: "count", Better: "lower"},
		metricDef{Name: "network.latency_mean", Unit: "cycles", Better: "lower"},
		metricDef{Name: "network.blocking_mean", Unit: "cycles", Better: "lower"},
		metricDef{Name: "mesh.failures", Unit: "count", Better: "lower"},
		metricDef{Name: "sim.jobs_killed", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.cpu_ns_per_item", Unit: "ns", Better: "lower"},
		metricDef{Name: "mesh.sharded_speedup_w2", Unit: "x", Better: "higher"},
		metricDef{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
	)
	for _, p := range probes {
		out = append(out, metricDef{Name: p.name, Unit: "ns", Better: "lower"})
		if p.allocs != "" {
			out = append(out, metricDef{Name: p.allocs, Unit: "count", Better: "lower"})
		}
	}
	return out
}()

// layerMetrics computes the per-layer metrics of a traced run. probes
// come from runProbes.
func (r *run) layerMetrics(probeValues map[string]float64) map[string]float64 {
	out := map[string]float64{}
	tr := r.traced
	var sampled int64
	for _, ns := range tr.ProfileNs {
		sampled += ns
	}
	// The profiler drops samples at high rates, so the profile gives
	// each layer's share and the rep's measured CPU time its seconds.
	trCPU := float64(tr.sum(func(c cellResult) int64 { return c.CPUNs })) / 1e9
	for _, l := range profiledLayers {
		share := ratio(float64(tr.ProfileNs[l]), float64(sampled))
		out[l+".self_share"] = share
		out[l+".self_s"] = share * trCPU
	}

	var calls, nextNs, completed, packets, measuredPackets, failures, killed int64
	var turnaround, util, wait, queue, pieces, extFrag, latency, blocking float64
	for _, c := range tr.Cells {
		calls += c.NextCalls
		nextNs += c.NextNs
		s := c.Stats
		completed += int64(s.Completed)
		packets += s.PacketsSent
		measuredPackets += s.PacketCount
		failures += s.Failures
		killed += s.JobsKilled
		turnaround += s.Turnaround
		util += s.Utilization
		wait += s.Wait
		queue += s.QueueLen
		pieces += s.Pieces
		extFrag += s.ExtFrag
		latency += s.Latency * float64(s.PacketCount)
		blocking += s.Blocking * float64(s.PacketCount)
	}
	n := float64(len(tr.Cells))
	out["workload.next_calls"] = float64(calls)
	out["workload.next_ns_mean"] = ratio(float64(nextNs), float64(calls))
	out["sim.jobs_completed"] = float64(completed)
	out["sim.turnaround_mean"] = ratio(turnaround, n)
	out["sim.utilization"] = ratio(util, n)
	out["sched.wait_mean"] = ratio(wait, n)
	out["sched.queue_len_mean"] = ratio(queue, n)
	out["alloc.pieces_mean"] = ratio(pieces, n)
	out["alloc.ext_frag_rate"] = ratio(extFrag, n)
	out["network.packets_sent"] = float64(packets)
	out["network.latency_mean"] = ratio(latency, float64(measuredPackets))
	out["network.blocking_mean"] = ratio(blocking, float64(measuredPackets))
	out["mesh.failures"] = float64(failures)
	out["sim.jobs_killed"] = float64(killed)

	var gc, cpu, untraced []float64
	for _, rep := range r.reps {
		gc = append(gc, float64(rep.sum(func(c cellResult) int64 { return int64(c.GCCycles) })))
		// CPU time of every thread, GC workers included, scaled like
		// the timings: it rises when work moves off the run's goroutine.
		cpuNs := rep.hostScale() * float64(rep.sum(func(c cellResult) int64 { return c.CPUNs }))
		cpu = append(cpu, ratio(cpuNs, float64(rep.sum(func(c cellResult) int64 { return c.Items }))))
		untraced = append(untraced, runNs(rep))
	}
	out["runtime.gc_cycles"] = median(gc)
	out["runtime.cpu_ns_per_item"] = median(cpu)
	out["trace.overhead"] = ratio(runNs(*tr), median(untraced)) - 1
	// Without a sharded executor there is one search path: no speed-up.
	out["mesh.sharded_speedup_w2"] = 1
	if r.w2 != nil {
		out["mesh.sharded_speedup_w2"] = ratio(median(untraced), runNs(*r.w2))
	}
	for k, v := range probeValues {
		out[k] = v
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
