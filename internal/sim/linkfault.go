package sim

// Link failures: the FaultPlan's links section runs a second
// failureProcess (fault.go) over the network's links, id = node index
// × 6 + direction − East, beside the node process. Random link
// failures follow the same Poisson superposition (aggregate rate
// up/MTBF) with exponential MTTR repairs; LinkOutages add scheduled
// link or row-of-links cuts. Failing and recovering delegate to
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
// through the kill drain counter, and a job waiting out a retry
// backoff is still in running — so the drain-run accounting in
// maybeFinishFaulted needs no link-specific cases, and a run can never
// end with a packet outstanding. Run audits exactly that
// (network.CheckConservation). A link repair wakes nothing: it cannot
// unblock the queue, so it neither retries the scheduler nor gates the
// end of a drain run.

import (
	"errors"
	"fmt"

	"repro/internal/mesh"
	"repro/internal/network"
)

// linkSeedMix decorrelates the link-fault stream from the node-fault
// stream sharing FaultPlan.Seed (an arbitrary odd 63-bit constant).
const linkSeedMix int64 = 0x5851f42d4c957f2d

// linkDirs is the number of fabric directions a node's links leave in,
// East through Down: the stride of the link id space.
const linkDirs = int(network.Down-network.East) + 1

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

// resolve checks the links section like FaultPlan.resolve and
// resolves each outage to link ids: its Links list in order, then the
// Row's links in x order.
func (lp *LinkPlan) resolve(m *mesh.Mesh, topo network.Topology, start float64) ([]outageRun, error) {
	if lp == nil {
		return nil, nil
	}
	if err := checkRates("LinkPlan", lp.MTBF, lp.MTTR, lp.MaxFailures); err != nil {
		return nil, err
	}
	w, l, h := m.W(), m.L(), m.H()
	var runs []outageRun
	for i, o := range lp.Outages {
		if err := checkOutage("LinkPlan", "link outage", i, o.At, o.Duration, start); err != nil {
			return nil, err
		}
		if len(o.Links) == 0 && o.Row == nil {
			return nil, fmt.Errorf("sim: link outage %d names no links", i)
		}
		run := outageRun{at: o.At, duration: o.Duration}
		for j, ref := range o.Links {
			d, err := linkDir(ref.Dir)
			if err != nil {
				return nil, fmt.Errorf("sim: link outage %d link %d: %v", i, j, err)
			}
			c := mesh.Coord{X: ref.X, Y: ref.Y, Z: ref.Z}
			if !m.InBounds(c) {
				return nil, fmt.Errorf("sim: link outage %d link %d node %v outside %dx%dx%d mesh", i, j, c, w, l, h)
			}
			if !network.LinkExistsOn(w, l, h, topo, c, d) {
				return nil, fmt.Errorf("sim: link outage %d link %d: no %s link at %v on this fabric", i, j, ref.Dir, c)
			}
			run.ids = append(run.ids, m.Index(c)*linkDirs+int(d-network.East))
		}
		if r := o.Row; r != nil {
			d, err := linkDir(r.Dir)
			if err != nil {
				return nil, fmt.Errorf("sim: link outage %d row: %v", i, err)
			}
			if r.Y < 0 || r.Y >= l || r.Z < 0 || r.Z >= h {
				return nil, fmt.Errorf("sim: link outage %d row y=%d z=%d outside %dx%dx%d mesh", i, r.Y, r.Z, w, l, h)
			}
			listed := len(run.ids)
			for x := 0; x < w; x++ {
				if c := (mesh.Coord{X: x, Y: r.Y, Z: r.Z}); network.LinkExistsOn(w, l, h, topo, c, d) {
					run.ids = append(run.ids, m.Index(c)*linkDirs+int(d-network.East))
				}
			}
			if len(run.ids) == listed {
				return nil, fmt.Errorf("sim: link outage %d row y=%d has no %s links on this fabric", i, r.Y, r.Dir)
			}
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// linkDir parses a link plan direction: a fabric link, not a
// processor's Inject or Eject link.
func linkDir(name string) (network.Direction, error) {
	d, err := network.ParseDirection(name)
	if err == nil && (d == network.Inject || d == network.Eject) {
		err = errors.New("processor links fail with their node, not in a link plan")
	}
	return d, err
}

// linkParts are the network's links, id = node index × linkDirs +
// direction − East. The network exists once the link process arms.
type linkParts struct{ s *Simulator }

func (p linkParts) link(id int) (mesh.Coord, network.Direction) {
	return p.s.mesh.CoordOf(id / linkDirs), network.East + network.Direction(id%linkDirs)
}

func (p linkParts) up(id int) bool {
	c, d := p.link(id)
	return p.s.net.LinkExists(c, d) && !p.s.net.LinkDown(c, d)
}

func (p linkParts) fail(id int) { must(p.s.net.FailLink(p.link(id))) }

func (p linkParts) recover(id int) { must(p.s.net.RecoverLink(p.link(id))) }

func (linkParts) settle() {}

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
