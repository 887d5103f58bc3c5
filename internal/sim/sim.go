// Package sim runs the end-to-end simulation of the paper's system: a
// job stream (workload.Source) is scheduled (sched) onto a mesh — 2D,
// torus, or 3D via Config.MeshH — by an allocation strategy (alloc);
// allocated jobs execute an
// all-to-all communication phase on the wormhole network (network) plus
// any trace compute demand, then depart and free their processors.
//
// One run yields all five paper metrics: average turnaround time,
// average service time, mean system utilization, average packet latency
// and average packet blocking time (paper §5).
package sim

import (
	"fmt"
	"math"

	"repro/internal/alloc"
	"repro/internal/des"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config parameterises one simulation run.
type Config struct {
	MeshW, MeshL int // mesh geometry (paper: 16 x 22)
	// MeshH is the mesh depth. Zero or one selects the paper's 2D
	// fabric; above one the allocators place cuboids and the network
	// routes XYZ over the volume. Depth > 1 requires the mesh topology
	// and a 3D-capable strategy (alloc.Supports3D) — New fails fast on
	// inconsistent geometry instead of ignoring the extra axis.
	MeshH   int
	Network network.Config // t_s and P_len (paper: 3 and 8)

	// Strategy is the allocation strategy name understood by
	// alloc.ByName (GABL, Paging(0), MBS, FirstFit, BestFit, Random).
	Strategy string
	// Scheduler is FCFS, SSD, SJF or LJF.
	Scheduler string

	// MaxCompleted stops the run after this many completed jobs
	// (paper: 1000 per run for the stochastic workload). Zero means
	// run until the source is exhausted and all jobs drain.
	MaxCompleted int
	// WarmupJobs excludes the first completions from the job and
	// packet statistics, removing cold-start transients.
	WarmupJobs int
	// MaxQueued aborts pathological runs where the backlog explodes
	// (saturated load); zero means unbounded. Runs that hit the bound
	// report Saturated in the result rather than failing.
	MaxQueued int

	// Pattern selects the communication pattern (default AllToAll, the
	// paper's choice; see Pattern for the ablation alternatives).
	Pattern Pattern

	// BackfillDepth allows up to this many queued jobs behind a
	// blocked head to be tried (aggressive backfilling without
	// reservations). Zero is the paper's semantics: allocation
	// attempts stop when they fail for the current queue head (§4).
	BackfillDepth int

	// ThinkMean is the mean of the exponential compute gap a processor
	// spends between its all-to-all sends (ProcSimity jobs alternate
	// computation and communication). It desynchronises a job's
	// injections so packet latency is dominated by distance and
	// cross-job interference rather than the job's own send burst.
	ThinkMean float64

	// Duration bounds the run in simulated time: after StartTime +
	// Duration the run finishes regardless of how many jobs completed
	// or remain queued (the long-horizon stopping rule for streaming
	// workloads, where "all jobs drain" may be months away). Zero means
	// no time bound. It composes with MaxCompleted — whichever stop
	// fires first ends measurement.
	Duration float64
	// StartTime is the simulated time the measurement window opens at:
	// the utilization and queue integrals begin here, arrivals are
	// clamped to it, and the fault engine arms here rather than at
	// zero. Callers warm-starting a workload (meshsim -start-time)
	// shift the arrivals (workload.Shifted) and set this to the same
	// offset so the metrics span exactly the simulated window. Zero is
	// the classic cold start.
	StartTime float64
	// Timeline, when non-nil, emits periodic snapshots of the running
	// metrics (timeline.go) — the observability channel for diurnal-
	// load and long-term-fragmentation studies. Requires Duration > 0:
	// the emission chain re-arms itself every Interval, so an unbounded
	// run would never let the event loop drain.
	Timeline *TimelineConfig

	// Seed drives simulation-internal randomness: think-time draws and
	// the Random strategy's placement stream.
	Seed int64

	// Faults injects processor failures and recoveries (fault.go). Nil
	// — and any plan with zero MTBF and no outages — leaves the run
	// bit-identical to a fault-free simulator: the fault stream draws
	// from its own seed, never from Seed.
	Faults *FaultPlan
}

// DefaultConfig mirrors the paper's experimental setup (stochastic
// workload stopping rule).
func DefaultConfig() Config {
	return Config{
		MeshW:        16,
		MeshL:        22,
		Network:      network.DefaultConfig(),
		Strategy:     "GABL",
		Scheduler:    "FCFS",
		MaxCompleted: 1000,
		MaxQueued:    20000,
	}
}

// Result carries the metrics of one run.
type Result struct {
	Completed int      // jobs measured (excludes warmup)
	SimTime   des.Time // simulation clock at the measurement end

	MeanTurnaround float64 // paper Figs. 2-4
	MeanService    float64 // paper Figs. 5-7
	Utilization    float64 // paper Figs. 8-10 (busy processors / total, time-averaged)
	MeanBlocking   float64 // paper Figs. 11-13 (per packet)
	MeanLatency    float64 // paper Figs. 14-16 (per packet)

	// P95Turnaround is the 95th-percentile turnaround (P² estimate):
	// FCFS head-of-line blocking shows in the tail before the mean.
	// Like the means, it is 0 when no job was measured.
	P95Turnaround float64

	MeanWait float64 // queueing delay before allocation
	// P95Wait is the 95th-percentile queueing delay (P² estimate):
	// under failures, kills and shrunken capacity cascade into the
	// wait tail long before the mean moves. It is 0 when no job was
	// measured.
	P95Wait      float64
	MeanPieces   float64 // sub-meshes per allocation (contiguity measure)
	PacketCount  int64
	MeanQueueLen float64
	Saturated    bool // hit MaxQueued: treat means as saturation values

	// ExternalFragRate is the fraction of allocation attempts that
	// failed despite enough free processors for the request — the
	// paper's motivating external-fragmentation measure (§1). It is
	// zero for the non-contiguous strategies by construction.
	ExternalFragRate float64
	// InternalFrag is the mean fraction of allocated processors beyond
	// the request (page rounding in Paging(size_index > 0)).
	InternalFrag float64

	// Resilience metrics (fault.go); all zero on fault-free runs, so
	// fault-free Results compare equal across code paths.
	Failures     int64 // processors failed (random + outage cells)
	Recoveries   int64 // processors recovered
	JobsKilled   int64 // jobs whose allocation a failure landed in
	JobsRequeued int64 // killed jobs returned to the queue head
	JobsAborted  int64 // killed jobs dropped (KillAbort)
	// LostWork is the processor-time destroyed by kills: residence so
	// far times allocation size, summed over every kill.
	LostWork float64
	// MeanPinned is the time-averaged number of failed processors.
	MeanPinned float64
	// AvailLoss is MeanPinned over the mesh size: the fraction of
	// machine capacity the failures kept away from the allocators.
	AvailLoss float64
	// FailureRate is failures per processor per time unit over the
	// run — the x-axis of utilization-loss-vs-failure-rate curves.
	FailureRate float64

	// End-to-end delivery accounting (linkfault.go). PacketsSent ==
	// PacketsDelivered + PacketsLost on every drained run, audited by
	// network.CheckConservation; the link counters are zero without
	// link faults, so fault-free Results still compare equal.
	PacketsSent      int64 // packets injected (PacketCount is the measured subset)
	PacketsDelivered int64 // packets whose tail reached the destination
	PacketsLost      int64 // packets that exhausted the retry policy or had no route
	LinkFailures     int64 // links failed (random + outage cuts)
	LinkRecoveries   int64 // links repaired
	Reroutes         int64 // routes bent around failed links
	PacketRetries    int64 // bounced deliveries re-requested after backoff
}

// jobState tracks one job through the pipeline. States are pooled on
// the Simulator (freeJobs) and reused after completion, together with
// their node buffer and sender slots, so the steady-state arrival →
// allocate → complete cycle allocates nothing.
type jobState struct {
	job         workload.Job
	allocation  alloc.Allocation
	allocAt     des.Time
	outstanding int          // undelivered packets
	nodes       []mesh.Coord // allocation's processors, buffer reused
	senders     []*sender    // one slot per sending processor, pooled
	next        *jobState    // pool free-list link

	// Fault-engine state (fault.go): the completion event handle so a
	// kill can cancel it, the position in the running list, and the
	// killed flag that fizzles in-flight deliveries. Untouched on
	// fault-free runs.
	doneEv des.Handle
	runIdx int
	killed bool
}

// sender is one sending processor's send-chain state: processor i of
// job j is issuing its k-th packet towards dst. It travels through the
// engine as an event argument and through the network as the delivery
// callback's captured state — the closure is created once per slot and
// reused for every packet the slot ever sends (slots are pooled on the
// Simulator), so the per-packet path allocates nothing in sim.
type sender struct {
	sim       *Simulator
	j         *jobState
	i, k      int
	dst       mesh.Coord // drawn at schedule time: the rng order is part of the results
	onDeliver func(*network.Packet)
	onLost    func(*network.Packet)
	next      *sender // pool free-list link

	// pkt is the slot's packet record, re-sent through
	// network.SendInto for every packet. Sends are blocking, so at most
	// one is in flight, and a slot returns to the pool (recycleJob,
	// finalizeKill) only after its last packet was delivered or lost.
	pkt network.Packet

	// pending is the scheduled-but-not-yet-injected send event, so a
	// kill can cancel sends that never reached the network (fault.go).
	// A handle that already fired is invalid and costs nothing.
	pending des.Handle
}

// Simulator couples the substrates for one run. Construct with New,
// drive with Run; a Simulator is single-use.
type Simulator struct {
	cfg   Config
	eng   *des.Engine
	mesh  *mesh.Mesh
	net   *network.Network // built on first Send (see network)
	alloc alloc.Allocator
	queue sched.Queue[*jobState]
	src   workload.Source
	rng   *stats.Stream

	// Event functions are bound once here and passed to ScheduleEvent
	// with their state as the argument, so the event loop schedules
	// without allocating closures (des package doc).
	arriveFn   des.EventFunc
	completeFn des.EventFunc
	sendFn     des.EventFunc
	pendingJob workload.Job // the one job awaiting its arrival event

	freeJobs    *jobState // jobState pool
	freeSenders *sender   // sender-slot pool

	completed int
	done      bool
	saturated bool
	srcErr    error // bad source: abnormal end (workload.SourceErr) or a job no mesh fits

	// Timeline emission state (timeline.go); inert when cfg.Timeline
	// is nil.
	timelineFn   des.EventFunc
	timelineErr  error
	timelinePrev int // completions at the previous snapshot

	turnaround stats.Accumulator
	service    stats.Accumulator
	wait       stats.Accumulator
	pieces     stats.Accumulator
	latency    stats.Accumulator
	blocking   stats.Accumulator
	busyInt    stats.TimeWeighted
	queueInt   stats.TimeWeighted

	allocAttempts int64
	extFragFails  int64
	internalFrag  stats.Accumulator
	turnP95       *stats.Quantile
	waitP95       *stats.Quantile

	// Fault engine (fault.go). faults is nil unless the configured
	// plan can actually fail something, so fault-free runs skip every
	// fault branch. The failure process over the links is nil unless
	// the plan's links section can fail something.
	faults       *FaultPlan
	nodes, links *failureProcess
	running      []*jobState // jobs with live allocations (faulted runs only)
	draining     int         // killed jobs with packets still in flight
	srcExhausted bool
	finalizeFn   des.EventFunc

	failures   int64
	recoveries int64
	kills      int64
	requeues   int64
	aborts     int64
	lostWork   float64
	pinnedInt  stats.TimeWeighted
}

// New builds a simulator for the configuration and job source.
func New(cfg Config, src workload.Source) (*Simulator, error) {
	if cfg.MeshW <= 0 || cfg.MeshL <= 0 {
		return nil, fmt.Errorf("sim: invalid mesh %dx%d", cfg.MeshW, cfg.MeshL)
	}
	if cfg.MeshH < 0 {
		return nil, fmt.Errorf("sim: negative mesh depth %d", cfg.MeshH)
	}
	depth := cfg.MeshH
	if depth == 0 {
		depth = 1
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"Duration", cfg.Duration}, {"StartTime", cfg.StartTime}, {"ThinkMean", cfg.ThinkMean}} {
		if err := checkTime(f.name, f.v); err != nil {
			return nil, err
		}
	}
	if err := cfg.Timeline.validate(cfg.Duration); err != nil {
		return nil, err
	}
	eng := des.NewEngine()
	// The interconnect topology governs the occupancy model too: on a
	// torus the allocators may place sub-meshes across the wrap-around
	// seams, matching the wrap links the network routes over. The torus
	// occupancy and routing layers are 2D-only, so a depth above 1 is
	// an inconsistent geometry, reported here rather than silently
	// flattened.
	var m *mesh.Mesh
	switch {
	case cfg.Network.Topology == network.TorusTopology && depth > 1:
		return nil, fmt.Errorf("sim: torus topology is 2D-only, got depth %d (use -topology mesh or depth 1)", depth)
	case cfg.Network.Topology == network.TorusTopology:
		m = mesh.NewTorus(cfg.MeshW, cfg.MeshL)
	default:
		m = mesh.New3D(cfg.MeshW, cfg.MeshL, depth)
	}
	// A malformed fault plan (scenario file) must fail at setup; a good
	// one resolves to the outage runs of the two failure processes.
	nodeRuns, linkRuns, err := cfg.Faults.resolve(m, cfg.Network.Topology, cfg.StartTime)
	if err != nil {
		return nil, err
	}
	// The network itself is built lazily on first Send (see network),
	// but its configuration must fail here, at setup, not mid-run.
	if err := cfg.Network.Validate(); err != nil {
		return nil, err
	}
	al, err := alloc.ByName(cfg.Strategy, m, stats.NewStream(cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	// Checked after ByName so a misspelled name reports "unknown
	// strategy" rather than "2D-only".
	if depth > 1 && !alloc.Supports3D(cfg.Strategy) {
		return nil, fmt.Errorf("sim: strategy %q is 2D-only and cannot run on a depth-%d mesh", cfg.Strategy, depth)
	}
	s := &Simulator{
		cfg:     cfg,
		eng:     eng,
		mesh:    m,
		alloc:   al,
		src:     src,
		rng:     stats.NewStream(cfg.Seed),
		turnP95: stats.NewQuantile(0.95),
		waitP95: stats.NewQuantile(0.95),
	}
	switch cfg.Scheduler {
	case "FCFS":
		s.queue = sched.NewFCFS[*jobState]()
	case "SSD":
		s.queue = sched.NewSSD(func(j *jobState) float64 { return j.job.ServiceDemand() })
	case "SJF":
		s.queue = sched.NewSJF(func(j *jobState) float64 { return float64(j.job.Size()) })
	case "LJF":
		s.queue = sched.NewLJF(func(j *jobState) float64 { return float64(j.job.Size()) })
	default:
		return nil, fmt.Errorf("sim: unknown scheduler %q", cfg.Scheduler)
	}
	s.arriveFn = func(any) { s.arrive(s.pendingJob) }
	s.completeFn = func(a any) { s.complete(a.(*jobState)) }
	s.sendFn = func(a any) {
		sd := a.(*sender)
		s.network().SendInto(&sd.pkt, sd.j.nodes[sd.i], sd.dst, sd.onDeliver, sd.onLost)
	}
	// Wire the fault engine only when the plan can fail something: an
	// inactive plan stays bit-identical to no plan at all.
	if p := cfg.Faults; p.Active() {
		s.faults = p
		s.finalizeFn = func(a any) { s.finalizeKill(a.(*jobState)) }
		s.nodes = &failureProcess{parts: nodeParts{s}, eng: eng, rng: stats.NewStream(p.Seed),
			mtbf: p.MTBF, mttr: p.MTTR, maxFailures: p.MaxFailures, ids: m.Size(), runs: nodeRuns}
		if lp := p.Links; lp.active() {
			// The link stream is decorrelated from the node stream
			// sharing the plan seed (linkfault.go).
			s.links = &failureProcess{parts: linkParts{s}, eng: eng, rng: stats.NewStream(p.Seed ^ linkSeedMix),
				mtbf: lp.MTBF, mttr: lp.MTTR, maxFailures: lp.MaxFailures, ids: m.Size() * linkDirs, runs: linkRuns}
		}
	}
	return s, nil
}

// quantile reports a streaming quantile's estimate, or 0 before its
// first observation, as the means do: a run that measures no job has
// no tail, and a NaN would not encode as JSON.
func quantile(q *stats.Quantile) float64 {
	if q.N() == 0 {
		return 0
	}
	return q.Value()
}

// checkTime rejects a negative, NaN or infinite time parameter, naming
// the Config field. NaN fails every "< 0" check, so it is tested first.
func checkTime(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("sim: %s %v is not finite", field, v)
	}
	if v < 0 {
		return fmt.Errorf("sim: negative %s %v", field, v)
	}
	return nil
}

// validTime reports whether checkTime accepts v, so a caller that
// builds the field name builds it only for a bad value.
func validTime(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// network returns the interconnect, building it on first use: the
// channel state of a large mesh is tens of megabytes, and workloads
// without communication (or runs that end before any send) never pay
// for it. Construction is pure allocation, so deferring it changes no
// event order and no metric.
func (s *Simulator) network() *network.Network {
	if s.net == nil {
		s.net = network.New3D(s.eng, s.cfg.MeshW, s.cfg.MeshL, s.mesh.H(), s.cfg.Network)
	}
	return s.net
}

// newJobState takes a job state from the pool or mints one, resetting
// the per-job fields and keeping the reusable buffers.
func (s *Simulator) newJobState(job workload.Job) *jobState {
	j := s.freeJobs
	if j == nil {
		j = &jobState{}
	} else {
		s.freeJobs = j.next
		j.next = nil
	}
	j.job = job
	j.allocation = alloc.Allocation{}
	j.allocAt = 0
	j.outstanding = 0
	j.nodes = j.nodes[:0]
	j.senders = j.senders[:0]
	j.doneEv = des.Handle{}
	j.killed = false
	return j
}

// recycleJob returns a completed job's state and sender slots to their
// pools. Only complete calls it: by then every packet is delivered and
// no pending event references the state.
func (s *Simulator) recycleJob(j *jobState) {
	for _, sd := range j.senders {
		sd.j = nil
		sd.next = s.freeSenders
		s.freeSenders = sd
	}
	j.senders = j.senders[:0]
	j.next = s.freeJobs
	s.freeJobs = j
}

// newSender takes a sender slot from the pool or mints one. A minted
// slot creates its delivery callback once; the closure reads the slot's
// current fields, so reuse re-targets it without reallocation.
func (s *Simulator) newSender(j *jobState, i int) *sender {
	sd := s.freeSenders
	if sd == nil {
		sd = &sender{sim: s}
		sd.onDeliver = func(p *network.Packet) {
			sd.sim.packetDelivered(sd.j, p)
			sd.k++
			sd.sim.sendNext(sd)
		}
		sd.onLost = func(*network.Packet) {
			sd.sim.packetLost(sd.j)
			sd.k++
			sd.sim.sendNext(sd)
		}
	} else {
		s.freeSenders = sd.next
		sd.next = nil
	}
	sd.j = j
	sd.i = i
	sd.k = 0
	return sd
}

// Run executes the simulation to its stopping condition and returns the
// metrics.
func Run(cfg Config, src workload.Source) (Result, error) {
	s, err := New(cfg, src)
	if err != nil {
		return Result{}, err
	}
	return s.Run()
}

// Run drives the event loop until MaxCompleted measured jobs, source
// exhaustion plus drain, or saturation. A Simulator is single-use.
func (s *Simulator) Run() (Result, error) {
	s.begin()
	for !s.done && s.eng.Step() {
	}
	return s.end()
}

// end closes the measurement window once the event loop has stopped,
// audits packet conservation and returns the metrics.
func (s *Simulator) end() (Result, error) {
	if s.srcErr != nil {
		return Result{}, s.srcErr
	}
	if s.timelineErr != nil {
		return Result{}, s.timelineErr
	}
	start := s.cfg.StartTime
	// A warm-started run that never executed an event still ends no
	// earlier than its window opened.
	end := s.eng.Now()
	if end < start {
		end = start
	}
	s.busyInt.Finish(end)
	s.queueInt.Finish(end)
	if s.faults != nil {
		s.pinnedInt.Finish(end)
	}
	// Packet-conservation audit: every injected packet was delivered,
	// lost, or — only when the run was cut off mid-flight by its
	// stopping rule (s.done) — still in flight. A natural drain (the
	// event loop ran dry) must leave nothing in flight and no channel
	// held, whatever faults did.
	if s.net != nil {
		if err := s.net.CheckConservation(!s.done); err != nil {
			return Result{}, err
		}
	}
	return s.result(), nil
}

// begin opens the measurement window and arms the event chains: the
// fault engine, the time bound, the timeline and the first arrival.
func (s *Simulator) begin() {
	start := s.cfg.StartTime
	s.busyInt.Observe(start, 0)
	s.queueInt.Observe(start, 0)
	if s.faults != nil {
		// On a warm start the fault engine arms at StartTime, not at
		// engine time zero: nothing exists before the window opens.
		if start > 0 {
			s.eng.At(start, s.armFaults)
		} else {
			s.armFaults()
		}
	}
	if s.cfg.Duration > 0 {
		s.eng.At(start+s.cfg.Duration, s.finish)
	}
	if s.cfg.Timeline != nil {
		s.startTimeline()
	}
	s.scheduleNextArrival()
}

func (s *Simulator) result() Result {
	extFrag := 0.0
	if s.allocAttempts > 0 {
		extFrag = float64(s.extFragFails) / float64(s.allocAttempts)
	}
	res := Result{
		ExternalFragRate: extFrag,
		Completed:        int(s.turnaround.N()),
		SimTime:          s.eng.Now(),
		MeanTurnaround:   s.turnaround.Mean(),
		MeanService:      s.service.Mean(),
		Utilization:      s.busyInt.Mean() / float64(s.mesh.Size()),
		MeanBlocking:     s.blocking.Mean(),
		MeanLatency:      s.latency.Mean(),
		MeanWait:         s.wait.Mean(),
		P95Wait:          quantile(s.waitP95),
		MeanPieces:       s.pieces.Mean(),
		PacketCount:      s.latency.N(),
		MeanQueueLen:     s.queueInt.Mean(),
		Saturated:        s.saturated,
		InternalFrag:     s.internalFrag.Mean(),
		P95Turnaround:    quantile(s.turnP95),
	}
	if s.faults != nil {
		res.Failures = s.failures
		res.Recoveries = s.recoveries
		res.JobsKilled = s.kills
		res.JobsRequeued = s.requeues
		res.JobsAborted = s.aborts
		res.LostWork = s.lostWork
		res.MeanPinned = s.pinnedInt.Mean()
		res.AvailLoss = res.MeanPinned / float64(s.mesh.Size())
		if span := float64(s.eng.Now()) - s.cfg.StartTime; span > 0 {
			res.FailureRate = float64(s.failures) / (float64(s.mesh.Size()) * span)
		}
	}
	if s.net != nil {
		res.PacketsSent = int64(s.net.Sent())
		res.PacketsDelivered = int64(s.net.Delivered())
		res.PacketsLost = int64(s.net.Lost())
		res.LinkFailures = int64(s.net.LinkFailures())
		res.LinkRecoveries = int64(s.net.LinkRecoveries())
		res.Reroutes = int64(s.net.Reroutes())
		res.PacketRetries = int64(s.net.Retries())
	}
	return res
}

// scheduleNextArrival pulls the next job from the source and schedules
// its arrival event. At most one arrival is pending at a time (the
// chain re-arms itself), so the job rides in pendingJob rather than a
// per-event closure.
func (s *Simulator) scheduleNextArrival() {
	job, ok := s.src.Next()
	if !ok {
		// A stream can end abnormally (the chunked trace reader hit a
		// malformed record mid-file): that is a failed run, not an
		// exhausted workload.
		if err := workload.SourceErr(s.src); err != nil {
			s.srcErr = err
			s.finish()
			return
		}
		s.srcExhausted = true
		s.maybeFinishFaulted()
		return
	}
	at := job.Arrival
	if at < s.cfg.StartTime {
		// Warm starts clamp pre-window arrivals to the window open.
		at = s.cfg.StartTime
	}
	if at < s.eng.Now() {
		// Trace time scaling can place arrivals in the engine's past
		// relative to a warm start; clamp forward.
		at = s.eng.Now()
	}
	s.pendingJob = job
	s.eng.AtEvent(at, s.arriveFn, nil)
}

func (s *Simulator) arrive(job workload.Job) {
	if s.done {
		return
	}
	if job.W <= 0 || job.L <= 0 || job.W > s.cfg.MeshW || job.L > s.cfg.MeshL ||
		job.Depth() > s.mesh.H() {
		// A job no allocation can ever hold would wedge the queue: the
		// source is at fault, so the run fails with its error.
		s.srcErr = fmt.Errorf("sim: job %d request %dx%dx%d does not fit %dx%dx%d mesh",
			job.ID, job.W, job.L, job.Depth(), s.cfg.MeshW, s.cfg.MeshL, s.mesh.H())
		s.finish()
		return
	}
	s.queue.Push(s.newJobState(job))
	s.queueInt.Observe(s.eng.Now(), float64(s.queue.Len()))
	if s.cfg.MaxQueued > 0 && s.queue.Len() > s.cfg.MaxQueued {
		s.saturated = true
		s.finish()
		return
	}
	s.trySchedule()
	s.scheduleNextArrival()
}

// trySchedule attempts to allocate queued jobs in scheduler order,
// stopping at the first failure (paper §4: "allocation attempts stop
// when they fail for the current queue head", for both FCFS and SSD).
// With BackfillDepth > 0 up to that many jobs behind a blocked head are
// tried as well (aggressive backfilling, no reservations).
func (s *Simulator) trySchedule() {
	for {
		head, ok := s.queue.Peek()
		if !ok {
			return
		}
		if s.tryStart(head) {
			s.queue.Pop()
			s.queueInt.Observe(s.eng.Now(), float64(s.queue.Len()))
			continue
		}
		if s.cfg.BackfillDepth > 0 {
			s.backfill()
		}
		return
	}
}

// tryStart attempts to allocate and launch one job, tracking the
// fragmentation statistics. It reports whether the job started.
func (s *Simulator) tryStart(j *jobState) bool {
	req := alloc.Request{W: j.job.W, L: j.job.L, H: j.job.H}
	s.allocAttempts++
	a, ok := s.alloc.Allocate(req)
	if !ok {
		if req.Size() <= s.mesh.FreeCount() {
			s.extFragFails++
		}
		return false
	}
	s.internalFrag.Add(float64(a.Size()-req.Size()) / float64(a.Size()))
	s.start(j, a)
	return true
}

// backfill drains up to BackfillDepth jobs behind the blocked head,
// starting any that fit the current occupancy; the rest — and the head
// — are reinserted at the front in their original order.
func (s *Simulator) backfill() {
	head, _ := s.queue.Pop() // the blocked head, reinserted below
	var skipped []*jobState
	for i := 0; i < s.cfg.BackfillDepth; i++ {
		j, ok := s.queue.Pop()
		if !ok {
			break
		}
		if s.tryStart(j) {
			continue
		}
		skipped = append(skipped, j)
	}
	for i := len(skipped) - 1; i >= 0; i-- {
		s.queue.PushFront(skipped[i])
	}
	s.queue.PushFront(head)
	s.queueInt.Observe(s.eng.Now(), float64(s.queue.Len()))
}

// start begins a job's execution on its allocation.
func (s *Simulator) start(j *jobState, a alloc.Allocation) {
	now := s.eng.Now()
	j.allocation = a
	j.allocAt = now
	// AllocatedCount excludes pinned (failed) processors and equals
	// BusyCount on a fault-free mesh, so utilization measures work the
	// machine actually hosts either way.
	s.busyInt.Observe(now, float64(s.mesh.AllocatedCount()))
	if s.faults != nil {
		s.addRunning(j)
	}

	size := a.Size()
	senders := s.cfg.Pattern.senders(size)
	if senders == 0 || j.job.Messages == 0 {
		// No communication partner: residence is the compute demand,
		// and the per-processor node list is never needed.
		j.doneEv = s.eng.ScheduleEvent(j.job.Compute, s.completeFn, j)
		return
	}
	// A pooled state keeps its buffers; one too small for this job
	// grows once, to size.
	if cap(j.nodes) < size {
		j.nodes = make([]mesh.Coord, 0, size)
	}
	if cap(j.senders) < senders {
		j.senders = make([]*sender, 0, senders)
	}
	j.nodes = a.AppendNodes(j.nodes[:0])
	// Communication phase (paper §5, ProcSimity patterns; the paper
	// uses all-to-all): each sending processor issues Messages
	// packets. Sends are blocking — a processor issues its next packet
	// when the previous one is delivered — so a job communicates
	// throughout its residence and concurrent jobs' messages
	// interfere, which is what makes packet latency and blocking grow
	// with system load (paper Figs. 11-16).
	j.outstanding = senders * j.job.Messages
	for i := 0; i < senders; i++ {
		sd := s.newSender(j, i)
		j.senders = append(j.senders, sd)
		s.sendNext(sd)
	}
}

// sendNext schedules the sender's next packet after an optional compute
// gap (ThinkMean); the delivery callback chains the one after. Under
// the paper's all-to-all pattern the k-th destination is the (k+1)-th
// successor on the ring of the job's processors in allocation order:
// with Messages >= n-1 this is the full all-to-all exchange; with fewer
// messages it is the truncated all-to-all, which rewards allocations
// that keep consecutively allocated processors physically close —
// precisely the contiguity property the strategies differ in. The
// destination and think time are drawn here, at schedule time, keeping
// the rng consumption order of the pre-pooling event loop.
func (s *Simulator) sendNext(sd *sender) {
	j := sd.j
	if j.killed || sd.k >= j.job.Messages {
		return
	}
	sd.dst = j.nodes[s.cfg.Pattern.dest(sd.i, sd.k, len(j.nodes), s.rng)]
	think := 0.0
	if s.cfg.ThinkMean > 0 {
		think = s.rng.Exp(s.cfg.ThinkMean)
	}
	sd.pending = s.eng.ScheduleEvent(think, s.sendFn, sd)
}

func (s *Simulator) packetDelivered(j *jobState, p *network.Packet) {
	if j.killed {
		// A kill raced this packet into the network: it fizzles without
		// statistics, and the last one finalizes the kill (fault.go).
		s.drainKilled(j)
		return
	}
	if s.measuring() {
		s.latency.Add(float64(p.Latency()))
		s.blocking.Add(float64(p.Blocked))
	}
	j.outstanding--
	if j.outstanding == 0 {
		// Communication phase done; the compute demand (zero for
		// stochastic jobs) completes the service.
		j.doneEv = s.eng.ScheduleEvent(j.job.Compute, s.completeFn, j)
	}
}

// measuring reports whether the warmup has passed and measurement is
// still open.
func (s *Simulator) measuring() bool {
	return s.completed >= s.cfg.WarmupJobs && !s.done
}

func (s *Simulator) complete(j *jobState) {
	now := s.eng.Now()
	measure := s.measuring()
	// Release takes back the piece list, so count the pieces first.
	pieces := j.allocation.PieceCount()
	s.alloc.Release(j.allocation)
	s.busyInt.Observe(now, float64(s.mesh.AllocatedCount()))
	if s.faults != nil {
		s.removeRunning(j)
	}
	s.completed++
	if measure {
		s.turnP95.Add(float64(now - j.job.Arrival))
		s.turnaround.Add(float64(now - j.job.Arrival))
		s.service.Add(float64(now - j.allocAt))
		s.wait.Add(float64(j.allocAt - j.job.Arrival))
		s.waitP95.Add(float64(j.allocAt - j.job.Arrival))
		s.pieces.Add(float64(pieces))
		if s.cfg.MaxCompleted > 0 && int(s.turnaround.N()) >= s.cfg.MaxCompleted {
			s.recycleJob(j)
			s.finish()
			return
		}
	}
	s.recycleJob(j)
	s.trySchedule()
	s.maybeFinishFaulted()
}

// finish closes measurement; the run loop exits on the next step.
func (s *Simulator) finish() {
	s.done = true
}
