package sim

// Stepped fault audit: the pinned fault cells run through Run's own
// loop with the failure processes' bookkeeping checked after every
// event, and must still produce their pinned digests.

import (
	"fmt"
	"testing"
)

// runAudited runs s as Run does, calling auditFaults after every event.
func runAudited(t *testing.T, s *Simulator) Result {
	t.Helper()
	s.begin()
	for events := 1; !s.done && s.eng.Step(); events++ {
		if err := s.auditFaults(); err != nil {
			t.Fatalf("event %d at t=%v: %v", events, s.eng.Now(), err)
		}
	}
	res, err := s.end()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// auditFaults checks the identities a faulted run keeps between events:
// the running jobs hold exactly the allocated processors, the failure
// counts and each process's down count match the mesh's pins and the
// network's down links, and every process's down components are the
// ones its active outages and pending random failures hold.
func (s *Simulator) auditFaults() error {
	held := 0
	for _, j := range s.running {
		held += j.allocation.Size()
	}
	if got := s.mesh.AllocatedCount(); held != got {
		return fmt.Errorf("running jobs hold %d processors, the mesh has %d allocated", held, got)
	}
	pinned := s.mesh.PinnedCount()
	if s.failures-s.recoveries != int64(pinned) || s.nodes.down != pinned {
		return fmt.Errorf("%d failures - %d recoveries, node process down %d, mesh pins %d",
			s.failures, s.recoveries, s.nodes.down, pinned)
	}
	if s.links != nil && s.links.down != s.net.DownLinks() {
		return fmt.Errorf("link process down %d, network down links %d", s.links.down, s.net.DownLinks())
	}
	for _, p := range []*failureProcess{s.nodes, s.links} {
		if p == nil {
			continue
		}
		if err := p.audit(); err != nil {
			return err
		}
	}
	return nil
}

// audit checks that every id an active outage holds is down, and that
// the down count is exactly what the holders explain: the ids active
// outages hold plus the random failures still down, which is every one
// of them without repairs, else those with a repair pending (pending
// counts the bounded active outages' ends too).
func (p *failureProcess) audit() error {
	held, bounded := 0, 0
	for i := range p.runs {
		r := &p.runs[i]
		if !r.on {
			continue
		}
		for _, id := range r.held {
			if p.parts.up(id) {
				return fmt.Errorf("outage %d holds id %d, which is up", i, id)
			}
		}
		held += len(r.held)
		if r.duration > 0 {
			bounded++
		}
	}
	random := p.random
	if p.mttr > 0 {
		random = p.pending - bounded
	}
	if p.down != held+random {
		return fmt.Errorf("%d ids down, but active outages hold %d and %d random failures are down", p.down, held, random)
	}
	return nil
}

// TestFaultCellsAudited steps every pinned fault cell under auditFaults
// and holds it to its pinned digest: the audit observes, it changes
// nothing.
func TestFaultCellsAudited(t *testing.T) {
	for _, c := range faultCells(t) {
		s, err := New(c.cfg, c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := resultDigest(runAudited(t, s)); d != pinnedResults[c.name] {
			t.Errorf("%s: audited run digest %s, pinned %s", c.name, d, pinnedResults[c.name])
		}
	}
}
