package network

// Link (channel) failures: the fault axis of the network layer.
//
// A physical link is the pair of virtual channels leaving one node in
// one direction; FailLink marks both down, RecoverLink brings them
// back. A down channel rejects new grants (fail-stop at acquisition: a
// worm already crossing the link drains normally — the interpretation
// is that the link fails after its in-flight flits land), so a header
// whose next hop is down is *bounced*: the worm releases every channel
// it holds, returns to its source, and a retry policy (Config
// MaxRetries/RetryBackoff/RetryDeadline) re-requests delivery after an
// exponential backoff in simulated cycles. Headers queued on the
// failing channel are bounced immediately.
//
// Retried packets are routed by a minimal-misroute variant of the XYZ
// dimension-ordered router (routeAround): when the plain XYZ path
// crosses no down link it is used unchanged — on a fault-free network
// the detour router IS the XYZ router — and otherwise a deterministic
// breadth-first search over the up links finds a shortest detour
// (minimal extra hops, ties broken by the fixed direction order East,
// West, North, South, Up, Down and FIFO visit order). No detour means
// the send fails deterministically: the packet is lost and the loss
// callback fires.
//
// Deadlock freedom: XYZ routing alone is deadlock-free, so any chained
// blocking cycle must include at least one detoured worm. Detoured
// worms therefore wait with bounded patience — a queued detoured
// header bounces after patience() cycles, releasing its channels —
// which breaks every cycle in bounded time. Bounces count against the
// retry budget, so the process terminates: every packet is eventually
// delivered or lost, and sent == delivered + lost + in-flight at all
// times (CheckConservation).
//
// Every fault branch in the hot paths is gated on downLinks != 0, so a
// network that never loses a link runs the pre-fault code bit for bit.

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/mesh"
)

// ParseDirection resolves a direction name as used by fault-plan files
// ("East", "West", "North", "South", "Up", "Down", "Inject", "Eject").
func ParseDirection(s string) (Direction, error) {
	for d, name := range dirNames {
		if s == name {
			return Direction(d), nil
		}
	}
	return 0, fmt.Errorf("network: unknown direction %q", s)
}

// LinkExists reports whether the channel leaving c in direction d
// reaches anything: mesh borders have no outgoing East/West/North/South
// links (the torus wraps them), the z axis never wraps, and every node
// has its Inject and Eject links.
func (n *Network) LinkExists(c mesh.Coord, d Direction) bool {
	return LinkExistsOn(n.w, n.l, n.d, n.cfg.Topology, c, d)
}

// LinkExistsOn is LinkExists for a w x l x d fabric of the given
// topology without constructing a Network — fault-plan validation runs
// at setup, before the (lazily built) network exists.
func LinkExistsOn(w, l, d int, topo Topology, c mesh.Coord, dir Direction) bool {
	switch dir {
	case Inject, Eject:
		return true
	case East:
		return c.X < w-1 || topo == TorusTopology
	case West:
		return c.X > 0 || topo == TorusTopology
	case North:
		return c.Y < l-1 || topo == TorusTopology
	case South:
		return c.Y > 0 || topo == TorusTopology
	case Up:
		return c.Z < d-1
	case Down:
		return c.Z > 0
	default:
		return false
	}
}

// linkCheck validates a FailLink/RecoverLink target.
func (n *Network) linkCheck(c mesh.Coord, d Direction) error {
	if c.X < 0 || c.X >= n.w || c.Y < 0 || c.Y >= n.l || c.Z < 0 || c.Z >= n.d {
		return fmt.Errorf("network: link node %v outside %dx%dx%d mesh", c, n.w, n.l, n.d)
	}
	if d < 0 || d >= numDirs {
		return fmt.Errorf("network: invalid direction %d", int(d))
	}
	if !n.LinkExists(c, d) {
		return fmt.Errorf("network: no %v link at %v on the %s %dx%dx%d fabric",
			d, c, n.cfg.Topology, n.w, n.l, n.d)
	}
	return nil
}

// FailLink fails the physical link leaving c in direction d: both
// virtual channels reject new grants, and every header queued on them
// is bounced back to its source for a retried (detoured) delivery. A
// worm currently crossing the link drains normally. Failing a link
// that is already down, or one that does not exist on this fabric, is
// an error.
func (n *Network) FailLink(c mesh.Coord, d Direction) error {
	if err := n.linkCheck(c, d); err != nil {
		return err
	}
	id := n.chanID3D(c.X, c.Y, c.Z, d, 0)
	if n.channels[id].down {
		return fmt.Errorf("network: link %v %v already failed", c, d)
	}
	n.downLinks++
	n.linkFails++
	// Mark both VCs down first, then bounce: the bounce cascades
	// (releases grant queued successors) and none of them may re-queue
	// on the dying link.
	buf := n.bounceBuf[:0]
	for vc := 0; vc < numVCs; vc++ {
		ch := &n.channels[id+int32(vc)]
		ch.down = true
		buf = append(buf, ch.queue...)
		ch.queue = ch.queue[:0]
	}
	for i, p := range buf {
		buf[i] = nil
		p.Blocked += n.eng.Now() - p.waitStart
		n.bounce(p)
	}
	n.bounceBuf = buf[:0]
	return nil
}

// RecoverLink brings a failed link back: both virtual channels accept
// grants again. Recovering a link that is not down is an error.
func (n *Network) RecoverLink(c mesh.Coord, d Direction) error {
	if err := n.linkCheck(c, d); err != nil {
		return err
	}
	id := n.chanID3D(c.X, c.Y, c.Z, d, 0)
	if !n.channels[id].down {
		return fmt.Errorf("network: link %v %v is not failed", c, d)
	}
	for vc := 0; vc < numVCs; vc++ {
		n.channels[id+int32(vc)].down = false
	}
	n.downLinks--
	n.linkRecovers++
	return nil
}

// LinkDown reports whether the link leaving c in direction d is
// currently failed.
func (n *Network) LinkDown(c mesh.Coord, d Direction) bool {
	return n.channels[n.chanID3D(c.X, c.Y, c.Z, d, 0)].down
}

// DownLinks returns the number of currently failed physical links.
func (n *Network) DownLinks() int { return n.downLinks }

// Sent returns the count of packets injected (including lost ones).
func (n *Network) Sent() uint64 { return n.nextID }

// Lost returns the count of packets that failed delivery: retries
// exhausted, deadline passed, or no route around the failed links.
func (n *Network) Lost() uint64 { return n.lost }

// LinkFailures returns the count of FailLink events.
func (n *Network) LinkFailures() uint64 { return n.linkFails }

// LinkRecoveries returns the count of RecoverLink events.
func (n *Network) LinkRecoveries() uint64 { return n.linkRecovers }

// Reroutes returns how many routes had to detour around failed links
// (the minimal-misroute BFS ran and bent the path).
func (n *Network) Reroutes() uint64 { return n.reroutes }

// Retries returns how many bounced deliveries were re-requested after
// backoff.
func (n *Network) Retries() uint64 { return n.retries }

// Lost reports whether the packet failed delivery (its loss callback
// has fired and its metric fields are final).
func (p *Packet) Lost() bool { return p.lost }

// CheckConservation audits the end-to-end delivery accounting: every
// injected packet is delivered, lost, or still in flight. With drained
// set (the event loop ran to empty) nothing may remain in flight and
// every channel must be free.
func (n *Network) CheckConservation(drained bool) error {
	if n.nextID != n.delivered+n.lost+uint64(n.inFlight) {
		return fmt.Errorf("network: conservation violated: sent %d != delivered %d + lost %d + in-flight %d",
			n.nextID, n.delivered, n.lost, n.inFlight)
	}
	if drained {
		if n.inFlight != 0 {
			return fmt.Errorf("network: %d packets in flight after drain", n.inFlight)
		}
		if busy := n.BusyChannels(); busy != 0 {
			return fmt.Errorf("network: %d channels busy after drain", busy)
		}
	}
	return nil
}

// patience is how long a detoured header may wait in one channel queue
// before bouncing: generous against ordinary contention (several
// worst-case unblocked traversals of the fabric) yet bounded, which is
// what breaks chained-blocking cycles involving misrouted worms.
func (n *Network) patience() des.Time {
	return des.Time(4*(n.w+n.l+n.d))*(1+n.cfg.RouterDelay) + des.Time(n.cfg.PacketLen)
}

// bounce returns a worm to its source router: every held channel is
// released (waking queued successors), and the delivery is retried
// after an exponential backoff — or lost, when the retry budget or
// deadline is exhausted. The caller has already removed the packet
// from any channel queue.
func (n *Network) bounce(p *Packet) {
	if p.waitEv.Valid() {
		n.eng.Cancel(p.waitEv)
		p.waitEv = des.Handle{}
	}
	lo := p.hop - n.cfg.window()
	if lo < 0 {
		lo = 0
	}
	for k := lo; k < p.hop; k++ {
		n.release(&n.channels[p.path[k]])
	}
	p.hop = 0
	p.attempt++
	if p.attempt > n.cfg.MaxRetries {
		n.lose(p)
		return
	}
	shift := p.attempt - 1
	if shift > 30 {
		shift = 30
	}
	delay := n.cfg.RetryBackoff * float64(int64(1)<<uint(shift))
	if n.cfg.RetryDeadline > 0 && n.eng.Now()+delay > p.CreatedAt+n.cfg.RetryDeadline {
		n.lose(p)
		return
	}
	n.retries++
	n.eng.ScheduleEvent(delay, n.retryFn, p)
}

// retry re-requests a bounced delivery over a freshly computed route
// around the links that are down now; no such route loses the packet.
func (n *Network) retry(p *Packet) {
	if !n.reroute(p) {
		n.lose(p)
		return
	}
	n.request(p)
}

// waitTimeout fires when a detoured header's queue patience expires:
// it leaves the queue and bounces.
func (n *Network) waitTimeout(p *Packet) {
	p.waitEv = des.Handle{}
	n.removeQueued(p.waitChan, p)
	p.Blocked += n.eng.Now() - p.waitStart
	n.bounce(p)
}

// removeQueued deletes p from a channel's FIFO, preserving order.
func (n *Network) removeQueued(id int32, p *Packet) {
	q := n.channels[id].queue
	for i, qp := range q {
		if qp == p {
			n.channels[id].queue = append(q[:i], q[i+1:]...)
			return
		}
	}
	panic("network: timed-out packet not in its channel queue")
}

// lose finalises a failed delivery.
func (n *Network) lose(p *Packet) {
	p.lost = true
	n.inFlight--
	n.lost++
	if p.onLost != nil {
		p.onLost(p)
	}
}

// reroute recomputes p's route from its source avoiding down links,
// reusing the packet's path buffer. It reports false when the
// destination is unreachable.
func (n *Network) reroute(p *Packet) bool {
	path, detoured, ok := n.routeAround(p.path[:0], p.Src, p.Dst)
	if !ok {
		return false
	}
	p.path = path
	p.detoured = detoured
	if detoured {
		n.reroutes++
	}
	return true
}

// RouteAround returns a route from src to dst that avoids every failed
// link, appending into buf (pass a reused buffer for an allocation-free
// call once grown). With no links down — or when the XYZ path misses
// every down link — it is exactly the XYZ dimension-ordered route;
// otherwise a shortest detour. ok is false when no route exists.
func (n *Network) RouteAround(buf []int32, src, dst mesh.Coord) (path []int32, ok bool) {
	n.checkCoord(src)
	n.checkCoord(dst)
	path, _, ok = n.routeAround(buf, src, dst)
	return path, ok
}

// routeAround implements the minimal-misroute router: the XYZ route
// when it crosses no down link, else a deterministic BFS shortest path
// over the up links. detoured reports that the BFS path was taken.
func (n *Network) routeAround(buf []int32, src, dst mesh.Coord) (path []int32, detoured, ok bool) {
	buf = n.appendRoute(buf[:0], src, dst)
	if n.downLinks == 0 {
		return buf, false, true
	}
	clean := true
	for _, id := range buf {
		if n.channels[id].down {
			clean = false
			break
		}
	}
	if clean {
		return buf, false, true
	}
	path, ok = n.detourBFS(buf, src, dst)
	return path, ok, ok
}

// nodeIndex linearises a coordinate the way chanID3D does.
func (n *Network) nodeIndex(c mesh.Coord) int {
	return (c.Z*n.l+c.Y)*n.w + c.X
}

// step moves one hop in direction d, wrapping the planar rings on the
// torus. ok is false when the hop leaves the fabric.
func (n *Network) step(x, y, z int, d Direction) (nx, ny, nz int, ok bool) {
	nx, ny, nz = x, y, z
	wrap := n.cfg.Topology == TorusTopology
	switch d {
	case East:
		nx++
		if nx == n.w {
			if !wrap {
				return 0, 0, 0, false
			}
			nx = 0
		}
	case West:
		nx--
		if nx < 0 {
			if !wrap {
				return 0, 0, 0, false
			}
			nx = n.w - 1
		}
	case North:
		ny++
		if ny == n.l {
			if !wrap {
				return 0, 0, 0, false
			}
			ny = 0
		}
	case South:
		ny--
		if ny < 0 {
			if !wrap {
				return 0, 0, 0, false
			}
			ny = n.l - 1
		}
	case Up:
		nz++
		if nz == n.d {
			return 0, 0, 0, false
		}
	case Down:
		nz--
		if nz < 0 {
			return 0, 0, 0, false
		}
	default:
		return 0, 0, 0, false
	}
	return nx, ny, nz, true
}

// hopVC picks the virtual channel for one detour hop: on the torus a
// hop that crosses a wrap seam rides VC1, other hops VC0. Unlike
// torusRoute's sticky dateline VCs this is not a deadlock-freedom
// argument — a BFS detour is not dimension-ordered, so no VC
// discipline could make it one; detoured worms rely on patience
// timeouts instead — it merely keeps seam crossings off the VC0
// channels the ordered traffic contends for.
func (n *Network) hopVC(x, y int, d Direction) int {
	if n.cfg.Topology != TorusTopology {
		return 0
	}
	if (d == East && x == n.w-1) || (d == West && x == 0) ||
		(d == North && y == n.l-1) || (d == South && y == 0) {
		return 1
	}
	return 0
}

// detourBFS finds the shortest path over up links, deterministic in
// the fixed direction order and FIFO visit order, and rebuilds the
// channel path into buf. ok is false when src and dst are cut apart.
func (n *Network) detourBFS(buf []int32, src, dst mesh.Coord) (path []int32, ok bool) {
	if n.channels[n.chanID3D(src.X, src.Y, src.Z, Inject, 0)].down ||
		n.channels[n.chanID3D(dst.X, dst.Y, dst.Z, Eject, 0)].down {
		return buf, false
	}
	size := n.w * n.l * n.d
	if len(n.bfsSeen) < size {
		n.bfsSeen = make([]uint32, size)
		n.bfsDir = make([]int8, size)
	}
	n.bfsEpoch++
	if n.bfsEpoch == 0 { // epoch wrapped: reset the stamps once
		clear(n.bfsSeen)
		n.bfsEpoch = 1
	}
	si, di := n.nodeIndex(src), n.nodeIndex(dst)
	q := n.bfsQueue[:0]
	n.bfsSeen[si] = n.bfsEpoch
	q = append(q, int32(si))
	found := si == di
	for i := 0; i < len(q) && !found; i++ {
		u := int(q[i])
		ux := u % n.w
		uy := (u / n.w) % n.l
		uz := u / (n.w * n.l)
		for d := East; d <= Down; d++ {
			vx, vy, vz, inMesh := n.step(ux, uy, uz, d)
			if !inMesh || n.channels[n.chanID3D(ux, uy, uz, d, 0)].down {
				continue
			}
			vi := (vz*n.l+vy)*n.w + vx
			if n.bfsSeen[vi] == n.bfsEpoch {
				continue
			}
			n.bfsSeen[vi] = n.bfsEpoch
			n.bfsDir[vi] = int8(d)
			q = append(q, int32(vi))
			if vi == di {
				found = true
				break
			}
		}
	}
	n.bfsQueue = q
	if !found {
		return buf, false
	}
	// Walk dst -> src through the arrival directions, reusing the tail
	// of buf as the reversal scratch, then emit the channel path
	// inject, hops..., eject in forward order.
	buf = buf[:0]
	x, y, z := dst.X, dst.Y, dst.Z
	for vi := di; vi != si; {
		d := Direction(n.bfsDir[vi])
		buf = append(buf, int32(d))
		// Invert the hop to find the predecessor.
		inv := [...]Direction{East: West, West: East, North: South, South: North, Up: Down, Down: Up}[d]
		px, py, pz, _ := n.step(x, y, z, inv)
		x, y, z = px, py, pz
		vi = (z*n.l+y)*n.w + x
	}
	hops := len(buf)
	// buf now holds the hop directions dst-first; build the forward
	// channel list in place: shift the reversed dirs to the tail, then
	// overwrite from the front.
	buf = append(buf, 0, 0) // room for inject and eject
	copy(buf[2:], buf[:hops])
	for i, j := 2, hops+1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	out := buf[:1]
	out[0] = n.chanID3D(src.X, src.Y, src.Z, Inject, 0)
	x, y, z = src.X, src.Y, src.Z
	for i := 0; i < hops; i++ {
		d := Direction(buf[2+i])
		out = append(out, n.chanID3D(x, y, z, d, n.hopVC(x, y, d)))
		x, y, z, _ = n.step(x, y, z, d)
	}
	out = append(out, n.chanID3D(dst.X, dst.Y, dst.Z, Eject, 0))
	return out, true
}
