package sim

// Failure/recovery engine: a seeded FaultPlan drives DES-scheduled
// processor failures (per-node exponential MTBF/MTTR via Poisson
// superposition) and scheduled zone outages. A failing processor is
// pinned on the mesh (mesh.Fail); if a live allocation holds it, the
// victim job is killed on the spot and requeued or aborted per policy.
// Recoveries unpin (mesh.Recover) and wake the scheduler.
//
// The fault stream is independent of every workload stream: it draws
// from stats.NewStream(FaultPlan.Seed), never from cfg.Seed or
// cfg.Seed+1, so adding, removing or reseeding a plan cannot perturb
// the arrival process, the think-time draws or the Random strategy's
// placements. A plan with no failure sources (zero MTBF, no outages)
// leaves the simulator bit-identical to a nil plan: nothing is wired.

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/des"
	"repro/internal/mesh"
	"repro/internal/network"
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

// Validate checks the plan against the run geometry and topology (the
// links section's existence checks depend on torus wrap links). It is
// called by sim.New so malformed scenario files fail at setup, not
// mid-run.
func (p *FaultPlan) Validate(w, l, h int, topo network.Topology) error {
	if p == nil {
		return nil
	}
	if p.MaxFailures < 0 {
		return fmt.Errorf("sim: negative FaultPlan.MaxFailures %d", p.MaxFailures)
	}
	if err := checkTime("FaultPlan.MTBF", p.MTBF); err != nil {
		return err
	}
	if err := checkTime("FaultPlan.MTTR", p.MTTR); err != nil {
		return err
	}
	if p.Policy != "" && p.Policy != KillRequeue && p.Policy != KillAbort {
		return fmt.Errorf("sim: unknown kill policy %q (want %q or %q)", p.Policy, KillRequeue, KillAbort)
	}
	for i, o := range p.Outages {
		if err := checkOutageTimes("FaultPlan", i, o.At, o.Duration); err != nil {
			return err
		}
		r := o.Region
		if !r.Valid() || r.X1 < 0 || r.Y1 < 0 || r.Z1 < 0 ||
			r.X2 >= w || r.Y2 >= l || r.Z2 >= h {
			return fmt.Errorf("sim: outage %d region %v outside %dx%dx%d mesh", i, r, w, l, h)
		}
	}
	return p.Links.validate(w, l, h, topo)
}

// checkOutageTimes rejects a negative, NaN or infinite At or Duration
// of outage i of the named plan, naming the field.
func checkOutageTimes(plan string, i int, at, duration float64) error {
	if err := checkTime(fmt.Sprintf("%s.Outages[%d].At", plan, i), at); err != nil {
		return err
	}
	return checkTime(fmt.Sprintf("%s.Outages[%d].Duration", plan, i), duration)
}

// outageState tracks one outage's own pins so its end event recovers
// exactly the cells it failed: cells already failed at the start (by
// the random process or an overlapping outage) belong to their own
// recovery owner and are skipped.
type outageState struct {
	spec  Outage
	cells []mesh.Coord
}

// startFaults arms the fault engine at the current engine time (zero
// classically, StartTime on a warm start): every outage's start event
// plus the first random failure.
func (s *Simulator) startFaults() {
	s.pinnedInt.Observe(s.eng.Now(), 0)
	for i := range s.faults.Outages {
		st := &outageState{spec: s.faults.Outages[i]}
		s.eng.AtEvent(st.spec.At, s.outageFn, st)
	}
	s.scheduleNextFailure()
}

// scheduleNextFailure (re)arms the single pending random-failure event.
// Per-node exponential lifetimes superpose into a Poisson process of
// rate alive/MTBF, and exponential memorylessness makes cancelling and
// redrawing on every alive-count change statistically exact.
func (s *Simulator) scheduleNextFailure() {
	if s.faults.MTBF <= 0 {
		return
	}
	if s.nextFail.Valid() {
		s.eng.Cancel(s.nextFail)
	}
	if s.faults.MaxFailures > 0 && s.randomFails >= s.faults.MaxFailures {
		return
	}
	alive := s.mesh.Size() - s.mesh.PinnedCount()
	if alive == 0 {
		return
	}
	s.nextFail = s.eng.ScheduleEvent(s.faultRng.Exp(s.faults.MTBF/float64(alive)), s.failFn, nil)
}

// nthAlive returns the k-th non-failed processor in index order — the
// uniform victim choice of the superposed process.
func (s *Simulator) nthAlive(k int) mesh.Coord {
	for i := 0; i < s.mesh.Size(); i++ {
		c := s.mesh.CoordOf(i)
		if s.mesh.Pinned(c) {
			continue
		}
		if k == 0 {
			return c
		}
		k--
	}
	panic("sim: nthAlive past the alive count")
}

// randomFailure fails one uniformly chosen alive processor and re-arms
// the process. Draw order — victim, repair delay, next interval — is
// part of the seeded schedule.
func (s *Simulator) randomFailure() {
	alive := s.mesh.Size() - s.mesh.PinnedCount()
	if alive == 0 {
		return
	}
	victim := s.nthAlive(s.faultRng.Intn(alive))
	s.randomFails++
	repair := -1.0
	if s.faults.MTTR > 0 {
		repair = s.faultRng.Exp(s.faults.MTTR)
	}
	s.applyFailure(victim, repair)
	s.scheduleNextFailure()
}

// applyFailure pins one processor, kills the job holding it (if any),
// and schedules its recovery when repairAfter is non-negative.
func (s *Simulator) applyFailure(c mesh.Coord, repairAfter float64) {
	if err := s.mesh.Fail(c); err != nil {
		panic(fmt.Sprintf("sim: %v", err)) // callers only pass alive cells
	}
	s.failures++
	s.pinnedInt.Observe(s.eng.Now(), float64(s.mesh.PinnedCount()))
	// Schedule the repair before the kill: finalizing a killed job
	// checks whether the run can end, and must see this pending
	// repair or it would finish with the victim still queued.
	if repairAfter >= 0 {
		s.pendingRepairs++
		s.eng.ScheduleEvent(repairAfter, s.recoverFn, s.mesh.Index(c))
	}
	if j := s.ownerOf(c); j != nil {
		s.killJob(j)
	}
}

// recoverCell unpins one randomly failed processor and wakes the
// scheduler: the freed cell may unblock the queue head.
func (s *Simulator) recoverCell(idx int) {
	s.pendingRepairs--
	c := s.mesh.CoordOf(idx)
	if err := s.mesh.Recover(c); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	s.recoveries++
	s.pinnedInt.Observe(s.eng.Now(), float64(s.mesh.PinnedCount()))
	s.scheduleNextFailure()
	s.trySchedule()
	s.maybeFinishFaulted()
}

// beginOutage pins every alive processor of the region, killing any
// jobs it lands in, and schedules the outage's end when bounded.
func (s *Simulator) beginOutage(st *outageState) {
	// Register the repair before pinning anything: applyFailure can
	// kill and requeue jobs, and the kill's drain-termination check
	// must see that this outage will end (pendingRepairs > 0) or it
	// would finish the run with the victims still queued.
	if st.spec.Duration > 0 {
		s.pendingRepairs++
		s.eng.ScheduleEvent(st.spec.Duration, s.outageEndFn, st)
	}
	for _, c := range st.spec.Region.Nodes() {
		if s.mesh.Pinned(c) {
			continue // already failed: owned by its own recovery
		}
		st.cells = append(st.cells, c)
		s.applyFailure(c, -1)
	}
	s.scheduleNextFailure()
}

// endOutage recovers exactly the cells this outage pinned.
func (s *Simulator) endOutage(st *outageState) {
	s.pendingRepairs--
	for _, c := range st.cells {
		if err := s.mesh.Recover(c); err != nil {
			panic(fmt.Sprintf("sim: %v", err))
		}
	}
	s.recoveries += int64(len(st.cells))
	s.pinnedInt.Observe(s.eng.Now(), float64(s.mesh.PinnedCount()))
	s.scheduleNextFailure()
	s.trySchedule()
	s.maybeFinishFaulted()
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
	if s.queue.Len() == 0 || s.pendingRepairs == 0 {
		s.finish()
	}
}
