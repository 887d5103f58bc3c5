package sim

// Link-failure engine: the FaultPlan's links section drives
// DES-scheduled link (channel) failures beside the node schedule in
// fault.go. Random link failures follow per-link exponential MTBF via
// the same Poisson superposition as node failures (aggregate rate
// up/MTBF, memorylessly redrawn whenever the up count changes), with
// exponential MTTR repairs; LinkOutages add scheduled link or
// row-of-links cuts. Failing and recovering delegate to
// network.FailLink/RecoverLink: bounced worms, detour routing, retry
// backoff and deterministic loss all live in internal/network.
//
// The link stream is seeded from FaultPlan.Seed mixed with a fixed
// constant, so it is independent of the node-fault stream and of every
// workload stream: adding a links section cannot perturb node-failure
// draws, arrivals, think times or placements.
//
// Termination: lost packets of live jobs advance the send chain (the
// loss resolves the delivery, packetLost), killed jobs' losses drain
// through the PR 7 drain counter, and a job waiting out a retry
// backoff is still in running — so the drain-run accounting in
// maybeFinishFaulted needs no link-specific cases, and a run can never
// end with a packet outstanding. Run audits exactly that
// (network.CheckConservation).

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/network"
)

// linkSeedMix decorrelates the link-fault stream from the node-fault
// stream sharing FaultPlan.Seed (an arbitrary odd 63-bit constant).
const linkSeedMix int64 = 0x5851f42d4c957f2d

// LinkRef names one physical link in a fault plan: the channel pair
// leaving node (X,Y,Z) in direction Dir ("East", "West", "North",
// "South", "Up", "Down").
type LinkRef struct {
	X   int    `json:"x"`
	Y   int    `json:"y"`
	Z   int    `json:"z,omitempty"`
	Dir string `json:"dir"`
}

// LinkRow names a whole row of parallel links: every node with the
// given Y (and Z plane) loses its Dir link. A North row cut severs the
// mesh between rows Y and Y+1 for northbound traffic.
type LinkRow struct {
	Y   int    `json:"y"`
	Z   int    `json:"z,omitempty"`
	Dir string `json:"dir"`
}

// LinkOutage is one scheduled link failure: every named link (the
// Links list plus the optional Row expansion) that is still up at time
// At fails, and recovers Duration later. A zero Duration makes
// the cut permanent.
type LinkOutage struct {
	At       float64   `json:"at"`
	Duration float64   `json:"duration,omitempty"`
	Links    []LinkRef `json:"links,omitempty"`
	Row      *LinkRow  `json:"row,omitempty"`
}

// LinkPlan is the links section of a FaultPlan: seeded random link
// failures plus scheduled link outages, mirroring the node-level
// schedule. A nil or all-zero LinkPlan leaves the run bit-identical to
// a plan without one.
type LinkPlan struct {
	// MTBF is the per-link mean time between failures; zero disables
	// random link failures.
	MTBF float64 `json:"mtbf"`
	// MTTR is the mean repair time of randomly failed links; zero
	// makes them permanent.
	MTTR float64 `json:"mttr"`
	// MaxFailures caps the number of random link failures; zero is
	// unlimited. Drain runs with MTBF > 0 should set it, or the
	// failure process outlives the workload.
	MaxFailures int `json:"max_failures,omitempty"`
	// Outages are scheduled link cuts, applied on top of the random
	// process.
	Outages []LinkOutage `json:"outages,omitempty"`
}

// active reports whether the links section can fail anything.
func (lp *LinkPlan) active() bool {
	return lp != nil && (lp.MTBF > 0 || len(lp.Outages) > 0)
}

// validate checks the links section against the run geometry; part of
// FaultPlan.Validate.
func (lp *LinkPlan) validate(w, l, h int, topo network.Topology) error {
	if lp == nil {
		return nil
	}
	if lp.MaxFailures < 0 {
		return fmt.Errorf("sim: negative LinkPlan.MaxFailures %d", lp.MaxFailures)
	}
	if err := checkTime("LinkPlan.MTBF", lp.MTBF); err != nil {
		return err
	}
	if err := checkTime("LinkPlan.MTTR", lp.MTTR); err != nil {
		return err
	}
	for i, o := range lp.Outages {
		if err := checkOutageTimes("LinkPlan", i, o.At, o.Duration); err != nil {
			return err
		}
		if len(o.Links) == 0 && o.Row == nil {
			return fmt.Errorf("sim: link outage %d names no links", i)
		}
		for j, ref := range o.Links {
			d, err := network.ParseDirection(ref.Dir)
			if err != nil {
				return fmt.Errorf("sim: link outage %d link %d: %v", i, j, err)
			}
			if d == network.Inject || d == network.Eject {
				return fmt.Errorf("sim: link outage %d link %d: processor links fail with their node, not in a link plan", i, j)
			}
			c := mesh.Coord{X: ref.X, Y: ref.Y, Z: ref.Z}
			if c.X < 0 || c.X >= w || c.Y < 0 || c.Y >= l || c.Z < 0 || c.Z >= h {
				return fmt.Errorf("sim: link outage %d link %d node %v outside %dx%dx%d mesh", i, j, c, w, l, h)
			}
			if !network.LinkExistsOn(w, l, h, topo, c, d) {
				return fmt.Errorf("sim: link outage %d link %d: no %s link at %v on this fabric", i, j, ref.Dir, c)
			}
		}
		if r := o.Row; r != nil {
			d, err := network.ParseDirection(r.Dir)
			if err != nil {
				return fmt.Errorf("sim: link outage %d row: %v", i, err)
			}
			if d == network.Inject || d == network.Eject {
				return fmt.Errorf("sim: link outage %d row: processor links fail with their node, not in a link plan", i)
			}
			if r.Y < 0 || r.Y >= l || r.Z < 0 || r.Z >= h {
				return fmt.Errorf("sim: link outage %d row y=%d z=%d outside %dx%dx%d mesh", i, r.Y, r.Z, w, l, h)
			}
			any := false
			for x := 0; x < w; x++ {
				if network.LinkExistsOn(w, l, h, topo, mesh.Coord{X: x, Y: r.Y, Z: r.Z}, d) {
					any = true
					break
				}
			}
			if !any {
				return fmt.Errorf("sim: link outage %d row y=%d has no %s links on this fabric", i, r.Y, r.Dir)
			}
		}
	}
	return nil
}

// netLink identifies one physical link at runtime.
type netLink struct {
	c mesh.Coord
	d network.Direction
}

// linkOutageState tracks one link outage's own cuts so its end event
// recovers exactly the links it failed: links already down at the
// start belong to their own recovery owner and are skipped.
type linkOutageState struct {
	spec  LinkOutage
	refs  []netLink // the outage's resolved link set
	links []netLink // the subset this outage actually failed
}

// startLinkFaults arms the link-failure engine at time zero. The
// network is built eagerly here — link state lives on it — which
// changes no event order (construction is pure allocation).
func (s *Simulator) startLinkFaults() {
	net := s.network()
	s.totalLinks = 0
	for i := 0; i < s.mesh.Size(); i++ {
		c := s.mesh.CoordOf(i)
		for d := network.East; d <= network.Down; d++ {
			if net.LinkExists(c, d) {
				s.totalLinks++
			}
		}
	}
	for i := range s.faults.Links.Outages {
		st := &linkOutageState{spec: s.faults.Links.Outages[i]}
		for _, ref := range st.spec.Links {
			d, err := network.ParseDirection(ref.Dir)
			if err != nil {
				panic(fmt.Sprintf("sim: %v", err)) // Validate ran at New
			}
			st.refs = append(st.refs, netLink{mesh.Coord{X: ref.X, Y: ref.Y, Z: ref.Z}, d})
		}
		if r := st.spec.Row; r != nil {
			d, err := network.ParseDirection(r.Dir)
			if err != nil {
				panic(fmt.Sprintf("sim: %v", err))
			}
			for x := 0; x < s.cfg.MeshW; x++ {
				c := mesh.Coord{X: x, Y: r.Y, Z: r.Z}
				if net.LinkExists(c, d) {
					st.refs = append(st.refs, netLink{c, d})
				}
			}
		}
		s.eng.AtEvent(st.spec.At, s.linkOutageFn, st)
	}
	s.scheduleNextLinkFailure()
}

// scheduleNextLinkFailure (re)arms the single pending random
// link-failure event — rate up/MTBF, redrawn memorylessly whenever the
// up-link count changes, exactly like the node process.
func (s *Simulator) scheduleNextLinkFailure() {
	if s.faults.Links == nil || s.faults.Links.MTBF <= 0 {
		return
	}
	if s.nextLinkFail.Valid() {
		s.eng.Cancel(s.nextLinkFail)
	}
	if s.faults.Links.MaxFailures > 0 && s.randomLinkFails >= s.faults.Links.MaxFailures {
		return
	}
	up := s.totalLinks - s.net.DownLinks()
	if up == 0 {
		return
	}
	s.nextLinkFail = s.eng.ScheduleEvent(s.linkRng.Exp(s.faults.Links.MTBF/float64(up)), s.linkFailFn, nil)
}

// nthUpLink returns the k-th up link in node-index, direction order —
// the uniform victim choice of the superposed link process.
func (s *Simulator) nthUpLink(k int) netLink {
	net := s.net
	for i := 0; i < s.mesh.Size(); i++ {
		c := s.mesh.CoordOf(i)
		for d := network.East; d <= network.Down; d++ {
			if !net.LinkExists(c, d) || net.LinkDown(c, d) {
				continue
			}
			if k == 0 {
				return netLink{c, d}
			}
			k--
		}
	}
	panic("sim: nthUpLink past the up-link count")
}

// randomLinkFailure fails one uniformly chosen up link and re-arms the
// process. Draw order — victim, repair delay, next interval — is part
// of the seeded schedule.
func (s *Simulator) randomLinkFailure() {
	up := s.totalLinks - s.net.DownLinks()
	if up == 0 {
		return
	}
	victim := s.nthUpLink(s.linkRng.Intn(up))
	s.randomLinkFails++
	if err := s.net.FailLink(victim.c, victim.d); err != nil {
		panic(fmt.Sprintf("sim: %v", err)) // victim was up
	}
	if s.faults.Links.MTTR > 0 {
		lk := victim // escapes into the event argument; failures are rare
		s.eng.ScheduleEvent(s.linkRng.Exp(s.faults.Links.MTTR), s.linkRecoverFn, &lk)
	}
	s.scheduleNextLinkFailure()
}

// recoverLink repairs one randomly failed link.
func (s *Simulator) recoverLink(lk *netLink) {
	if err := s.net.RecoverLink(lk.c, lk.d); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	s.scheduleNextLinkFailure()
}

// beginLinkOutage cuts every named link that is still up and schedules
// the outage's end when bounded.
func (s *Simulator) beginLinkOutage(st *linkOutageState) {
	if st.spec.Duration > 0 {
		s.eng.ScheduleEvent(st.spec.Duration, s.linkOutageEndFn, st)
	}
	for _, lk := range st.refs {
		if s.net.LinkDown(lk.c, lk.d) {
			continue // already down: owned by its own recovery
		}
		if err := s.net.FailLink(lk.c, lk.d); err != nil {
			panic(fmt.Sprintf("sim: %v", err))
		}
		st.links = append(st.links, lk)
	}
	s.scheduleNextLinkFailure()
}

// endLinkOutage recovers exactly the links this outage cut.
func (s *Simulator) endLinkOutage(st *linkOutageState) {
	for _, lk := range st.links {
		if err := s.net.RecoverLink(lk.c, lk.d); err != nil {
			panic(fmt.Sprintf("sim: %v", err))
		}
	}
	st.links = st.links[:0]
	s.scheduleNextLinkFailure()
}

// packetLost resolves a failed delivery: for a live job the loss
// counts as the delivery for send-chain and completion purposes —
// without the latency/blocking statistics a delivery would record —
// so the job still terminates; for a killed job it fizzles through
// the drain counter exactly like a delivery (fault.go).
func (s *Simulator) packetLost(j *jobState) {
	if j.killed {
		s.drainKilled(j)
		return
	}
	j.outstanding--
	if j.outstanding == 0 {
		j.doneEv = s.eng.ScheduleEvent(j.job.Compute, s.completeFn, j)
	}
}
