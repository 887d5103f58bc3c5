package sim

// Failure/recovery engine. One failureProcess type runs a FaultPlan's
// seeded failure machine twice: once over the processors (id = mesh
// index) and, when the plan's links section can fail something, once
// over the network links (linkfault.go). Each process has its own
// stream, rates, cap, pending random failure and outage runs. Random
// failures follow per-component exponential MTBF via Poisson
// superposition, repairs an exponential MTTR, and scheduled outages
// fail a resolved id list on top. A failing processor is pinned on the
// mesh (mesh.Fail); if a live allocation holds it, the victim job is
// killed on the spot and requeued or aborted per policy. Recoveries
// unpin (mesh.Recover) and wake the scheduler.
//
// The fault streams are independent of every workload stream: the node
// process draws from stats.NewStream(FaultPlan.Seed), never from
// cfg.Seed or cfg.Seed+1, so adding, removing or reseeding a plan
// cannot perturb the arrival process, the think-time draws or the
// Random strategy's placements. A plan with no failure sources (zero
// MTBF, no outages) leaves the simulator bit-identical to a nil plan:
// nothing is wired.

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/des"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/stats"
)

// KillPolicy selects what happens to a job whose allocation a failure
// lands in. The zero value requeues.
type KillPolicy string

const (
	// KillRequeue returns the victim to the head of the queue with its
	// original arrival time: it restarts from scratch on the next
	// placement (lost work is counted), and its eventual turnaround
	// spans the kill.
	KillRequeue KillPolicy = "requeue"
	// KillAbort drops the victim entirely; it never completes and
	// contributes no job statistics.
	KillAbort KillPolicy = "abort"
)

// Outage is one scheduled region failure: every non-failed processor
// of Region is pinned at time At and recovered Duration later. A
// zero Duration makes the outage permanent. Regions are planar
// or cuboid sub-meshes in mesh coordinates (inclusive corners); on a
// torus the region is interpreted planar, so a seam-adjacent band is
// expressed as its planar rectangle.
type Outage struct {
	At       float64      `json:"at"`
	Duration float64      `json:"duration,omitempty"`
	Region   mesh.Submesh `json:"region"`
}

// FaultPlan is a seeded, declarative failure schedule for one run.
// Random failures follow per-node exponential MTBF: each alive (non-
// failed) processor fails independently with mean time MTBF, realized
// by superposition — the aggregate failure rate is alive/MTBF, redrawn
// memorylessly whenever the alive count changes. A failed processor
// recovers after an exponential MTTR delay (zero MTTR: permanent).
// Zero MTBF disables random failures; Outages add scheduled zone
// failures on top. The plan is pure data and JSON-encodable, so
// scenarios live in version-controlled files (cmd/meshsim -faults).
type FaultPlan struct {
	// Seed seeds the fault stream (victim choice, failure times,
	// repair delays) — independent of the simulation and workload
	// seeds, so the same workload replays under different fault
	// schedules.
	Seed int64 `json:"seed"`
	// MTBF is the per-node mean time between failures in simulation
	// time units; zero disables random failures.
	MTBF float64 `json:"mtbf"`
	// MTTR is the mean repair time of randomly failed processors;
	// zero makes random failures permanent.
	MTTR float64 `json:"mttr"`
	// MaxFailures caps the number of random failures; zero is
	// unlimited. Drain runs (MaxCompleted == 0) with MTBF > 0 should
	// set it, or the failure process outlives the workload.
	MaxFailures int `json:"max_failures,omitempty"`
	// Outages are scheduled zone failures, applied on top of the
	// random process.
	Outages []Outage `json:"outages,omitempty"`
	// Policy picks the fate of jobs whose allocations failures land
	// in; empty means KillRequeue.
	Policy KillPolicy `json:"policy,omitempty"`
	// Links extends the plan to the network's channels: seeded link
	// MTBF/MTTR plus scheduled link outages (linkfault.go). Nil — or
	// all-zero — leaves the network layer untouched.
	Links *LinkPlan `json:"links,omitempty"`
}

// Active reports whether the plan can produce any failure at all.
func (p *FaultPlan) Active() bool {
	return p != nil && (p.MTBF > 0 || len(p.Outages) > 0 || p.Links.active())
}

// policy resolves the zero value.
func (p *FaultPlan) policy() KillPolicy {
	if p.Policy == "" {
		return KillRequeue
	}
	return p.Policy
}

// resolve checks the plan against the run's mesh, topology and start
// time, naming the first bad field, and resolves its outages to the id
// lists the node and link processes run.
func (p *FaultPlan) resolve(m *mesh.Mesh, topo network.Topology, start float64) (nodeRuns, linkRuns []outageRun, err error) {
	if p == nil {
		return nil, nil, nil
	}
	if err := checkRates("FaultPlan", p.MTBF, p.MTTR, p.MaxFailures); err != nil {
		return nil, nil, err
	}
	if p.Policy != "" && p.Policy != KillRequeue && p.Policy != KillAbort {
		return nil, nil, fmt.Errorf("sim: unknown kill policy %q (want %q or %q)", p.Policy, KillRequeue, KillAbort)
	}
	for i, o := range p.Outages {
		if err := checkOutage("FaultPlan", "outage", i, o.At, o.Duration, start); err != nil {
			return nil, nil, err
		}
		r := o.Region
		if !r.Valid() || !m.InBounds(r.Base()) || !m.InBounds(r.End()) {
			return nil, nil, fmt.Errorf("sim: outage %d region %v outside %dx%dx%d mesh", i, r, m.W(), m.L(), m.H())
		}
		run := outageRun{at: o.At, duration: o.Duration}
		for _, c := range r.Nodes() {
			run.ids = append(run.ids, m.Index(c))
		}
		nodeRuns = append(nodeRuns, run)
	}
	linkRuns, err = p.Links.resolve(m, topo, start)
	return nodeRuns, linkRuns, err
}

// checkRates rejects a negative failure cap and a negative, NaN or
// infinite MTBF or MTTR of the named plan section.
func checkRates(plan string, mtbf, mttr float64, maxFailures int) error {
	if maxFailures < 0 {
		return fmt.Errorf("sim: negative %s.MaxFailures %d", plan, maxFailures)
	}
	if !validTime(mtbf) {
		return checkTime(plan+".MTBF", mtbf)
	}
	if !validTime(mttr) {
		return checkTime(plan+".MTTR", mttr)
	}
	return nil
}

// checkOutage rejects a negative, NaN or infinite At or Duration of
// outage i of the named plan section, naming the field, and an outage
// that predates the run's start: a warm start arms the faults at
// StartTime, so such an outage could never fire.
func checkOutage(plan, kind string, i int, at, duration, start float64) error {
	if !validTime(at) {
		return checkTime(fmt.Sprintf("%s.Outages[%d].At", plan, i), at)
	}
	if !validTime(duration) {
		return checkTime(fmt.Sprintf("%s.Outages[%d].Duration", plan, i), duration)
	}
	if at < start {
		return fmt.Errorf("sim: %s %d at %v predates StartTime %v", kind, i, at, start)
	}
	return nil
}

// outageRun is one scheduled outage of either kind, resolved to
// component ids by sim.New. Its start fails every id that is still up
// and records it in held; its end recovers exactly the held ids. An id
// already down at the start belongs to the failure that took it down.
type outageRun struct {
	at, duration float64 // zero duration: permanent
	ids          []int
	held         []int
	on           bool // started and not yet ended
}

// parts is one kind of component a failureProcess fails: processors
// or links. The process only fails up components and only recovers
// down ones.
type parts interface {
	up(id int) bool // the component exists and works
	fail(id int)    // take it down
	recover(id int) // bring it back
	settle()        // after a repair: let the freed capacity work
}

// failureProcess is the seeded failure machine over one kind of
// component, numbered 0..ids-1. Random failures superpose per-component
// exponential lifetimes into a Poisson process of rate up/MTBF, and
// exponential memorylessness makes cancelling and redrawing on every
// up-count change statistically exact. The victim is the k-th up id in
// id order, and each failure draws, in order, its victim, its repair
// delay and the next interval. Scheduled outage runs fail on top.
type failureProcess struct {
	parts parts
	eng   *des.Engine
	fn    des.EventFunc // event, bound at arm so that sim.New allocates no closure

	rng         *stats.Stream
	mtbf, mttr  float64
	maxFailures int // cap on random failures; zero is unlimited

	ids    int // size of the id space
	n      int // components that exist, counted when the process arms
	down   int // components down now
	random int // random failures so far

	// pending counts scheduled repairs, random repairs and bounded
	// outage ends alike; only the node process's count gates the end
	// of a drain run (maybeFinishFaulted).
	pending int
	next    des.Handle // the pending random failure
	runs    []outageRun
}

// arm binds the event function, counts the components (every one is
// up before the faults arm), schedules each outage's start and draws
// the first random failure.
func (p *failureProcess) arm() {
	p.fn = p.event
	for id := 0; id < p.ids; id++ {
		if p.parts.up(id) {
			p.n++
		}
	}
	for i := range p.runs {
		p.eng.AtEvent(p.runs[i].at, p.fn, &p.runs[i])
	}
	p.scheduleNext()
}

// event is the process's one event function: a nil argument is the
// next random failure, an int the repair of that component, and an
// *outageRun an outage's start or, once it is on, its end.
func (p *failureProcess) event(arg any) {
	switch a := arg.(type) {
	case nil:
		p.failRandom()
	case int:
		p.repair(a)
	case *outageRun:
		if a.on {
			a.on = false
			p.repair(a.held...)
		} else {
			p.startRun(a)
		}
	}
}

// scheduleNext (re)arms the single pending random failure at rate
// up/MTBF, unless the cap is reached or nothing is up.
func (p *failureProcess) scheduleNext() {
	if p.mtbf <= 0 {
		return
	}
	if p.next.Valid() {
		p.eng.Cancel(p.next)
	}
	if p.maxFailures > 0 && p.random >= p.maxFailures {
		return
	}
	up := p.n - p.down
	if up == 0 {
		return
	}
	p.next = p.eng.ScheduleEvent(p.rng.Exp(p.mtbf/float64(up)), p.fn, nil)
}

// failRandom fails one uniformly chosen up component and re-arms the
// process. The repair is scheduled before the failure: a processor
// failure can kill a job, and the kill's drain-end check must see the
// pending repair or it would end the run with the victim still queued.
func (p *failureProcess) failRandom() {
	id := p.nth(p.rng.Intn(p.n - p.down))
	p.random++
	if p.mttr > 0 {
		p.pending++
		p.eng.ScheduleEvent(p.rng.Exp(p.mttr), p.fn, id)
	}
	p.down++
	p.parts.fail(id)
	p.scheduleNext()
}

// nth returns the k-th up component in id order.
func (p *failureProcess) nth(k int) int {
	for id := 0; id < p.ids; id++ {
		if p.parts.up(id) {
			if k == 0 {
				return id
			}
			k--
		}
	}
	panic("sim: failure victim past the up count")
}

// startRun fails every id of the run that is still up. A bounded run
// registers its end first, for the same reason failRandom schedules
// its repair first.
func (p *failureProcess) startRun(r *outageRun) {
	r.on = true
	if r.duration > 0 {
		p.pending++
		p.eng.ScheduleEvent(r.duration, p.fn, r)
	}
	for _, id := range r.ids {
		if p.parts.up(id) {
			r.held = append(r.held, id)
			p.down++
			p.parts.fail(id)
		}
	}
	p.scheduleNext()
}

// repair recovers components whose repair was pending: a random
// failure's one, or every id an ending outage holds.
func (p *failureProcess) repair(ids ...int) {
	p.pending--
	for _, id := range ids {
		p.down--
		p.parts.recover(id)
	}
	p.scheduleNext()
	p.parts.settle()
}

// must panics on an error the failure process rules out: it fails only
// up components and recovers only down ones.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
}

// nodeParts are the mesh's processors, id = mesh index.
type nodeParts struct{ s *Simulator }

func (p nodeParts) up(id int) bool { return !p.s.mesh.Pinned(p.s.mesh.CoordOf(id)) }

// fail pins the processor and kills the job that holds it, if any.
func (p nodeParts) fail(id int) {
	s := p.s
	c := s.mesh.CoordOf(id)
	must(s.mesh.Fail(c))
	s.failures++
	s.pinnedInt.Observe(s.eng.Now(), float64(s.mesh.PinnedCount()))
	if j := s.ownerOf(c); j != nil {
		s.killJob(j)
	}
}

func (p nodeParts) recover(id int) {
	s := p.s
	must(s.mesh.Recover(s.mesh.CoordOf(id)))
	s.recoveries++
	s.pinnedInt.Observe(s.eng.Now(), float64(s.mesh.PinnedCount()))
}

// settle wakes the scheduler: the freed processors may unblock the
// queue head, or end a drain run.
func (p nodeParts) settle() {
	p.s.trySchedule()
	p.s.maybeFinishFaulted()
}

// armFaults starts the failure processes at the current engine time —
// time zero classically, StartTime on a warm start (begin defers the
// call through an event).
func (s *Simulator) armFaults() {
	s.pinnedInt.Observe(s.eng.Now(), 0)
	s.nodes.arm()
	if s.links != nil {
		// Link state lives on the network, so it is built here, not on
		// first Send: construction is pure allocation, no event.
		s.network()
		s.links.arm()
	}
}

// ownerOf returns the running job whose allocation holds c, if any.
// The scan is linear in running jobs times pieces — failures are rare
// events, so clarity beats an index here.
func (s *Simulator) ownerOf(c mesh.Coord) *jobState {
	for _, j := range s.running {
		for _, p := range j.allocation.Pieces {
			if p.Contains(c) {
				return j
			}
		}
	}
	return nil
}

// addRunning/removeRunning maintain the live-allocation list the fault
// engine scans for victims. Only faulted runs pay for it.
func (s *Simulator) addRunning(j *jobState) {
	j.runIdx = len(s.running)
	s.running = append(s.running, j)
}

func (s *Simulator) removeRunning(j *jobState) {
	last := len(s.running) - 1
	moved := s.running[last]
	s.running[j.runIdx] = moved
	moved.runIdx = j.runIdx
	s.running[last] = nil
	s.running = s.running[:last]
}

// killJob tears down a job a failure landed in: its completion event
// is cancelled, senders with a scheduled (not yet injected) packet are
// cancelled, packets already in the network drain into the void, and
// the allocation is released — the mesh keeps the failed cell pinned.
// The job finalizes (requeue or abort) once no packet of it is in
// flight.
func (s *Simulator) killJob(j *jobState) {
	now := s.eng.Now()
	s.kills++
	s.lostWork += float64(now-j.allocAt) * float64(j.allocation.Size())
	if j.doneEv.Valid() {
		s.eng.Cancel(j.doneEv)
	}
	inflight := 0
	for _, sd := range j.senders {
		if sd.pending.Valid() {
			s.eng.Cancel(sd.pending)
			continue
		}
		if sd.k < j.job.Messages {
			inflight++ // injected, not yet delivered
		}
	}
	j.outstanding = inflight
	j.killed = true
	s.removeRunning(j)
	s.alloc.Release(j.allocation)
	s.busyInt.Observe(now, float64(s.mesh.AllocatedCount()))
	if inflight == 0 {
		s.finalizeKill(j)
	} else {
		s.draining++
	}
}

// finalizeKill settles a killed job once its packets drained: requeue
// puts it back at the queue head with its original arrival (the next
// placement restarts it from scratch), abort recycles it. Either way
// the scheduler gets a chance — the release freed processors.
func (s *Simulator) finalizeKill(j *jobState) {
	for _, sd := range j.senders {
		sd.j = nil
		sd.next = s.freeSenders
		s.freeSenders = sd
	}
	j.senders = j.senders[:0]
	j.killed = false
	j.allocation = alloc.Allocation{}
	j.outstanding = 0
	j.nodes = j.nodes[:0]
	j.doneEv = des.Handle{}
	if s.faults.policy() == KillRequeue {
		s.requeues++
		s.queue.PushFront(j)
		s.queueInt.Observe(s.eng.Now(), float64(s.queue.Len()))
	} else {
		s.aborts++
		j.next = s.freeJobs
		s.freeJobs = j
	}
	s.trySchedule()
	s.maybeFinishFaulted()
}

// drainKilled handles a delivery for a killed job: the packet fizzles
// (no statistics), and the last one triggers finalization — deferred
// through a zero-delay event so the delivery callback's remaining
// sender bookkeeping never touches a recycled slot.
func (s *Simulator) drainKilled(j *jobState) {
	j.outstanding--
	if j.outstanding == 0 {
		s.draining--
		s.eng.ScheduleEvent(0, s.finalizeFn, j)
	}
}

// maybeFinishFaulted ends a faulted drain run (MaxCompleted == 0) that
// can no longer make progress: the source is exhausted, nothing is
// running or draining, and either the queue is empty or no scheduled
// recovery remains that could unblock it. Without this, a recurring
// failure process would keep the event loop alive forever after the
// workload is done. Fault-free runs never reach it.
func (s *Simulator) maybeFinishFaulted() {
	if s.faults == nil || s.done || !s.srcExhausted || len(s.running) > 0 || s.draining > 0 {
		return
	}
	if s.queue.Len() == 0 || s.nodes.pending == 0 {
		s.finish()
	}
}
