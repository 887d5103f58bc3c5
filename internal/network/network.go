// Package network simulates a wormhole-switched mesh interconnect — 2D
// or, with New3D, 3D — at channel granularity on top of the des engine.
//
// Model: every unidirectional link — including each node's injection
// and ejection links — is a channel that one packet (worm) holds at a
// time, with a FIFO queue of waiting headers. A packet follows the XY
// dimension-ordered route from source to destination. The header
// crosses a channel in one cycle and spends RouterDelay (the paper's
// t_s) cycles in each router before requesting the next channel. If
// the next channel is busy the header waits — while continuing to
// hold every channel the worm stretches over, which is wormhole's
// chained blocking. Routers buffer BufferDepth flits per channel
// (ProcSimity's routers have small per-channel FIFO buffers), so a worm
// of PacketLen flits stretches over ceil(PacketLen/BufferDepth)
// channels: the tail frees channel j-W exactly when the header acquires
// channel j, a stalled header therefore stalls the tail, and the body
// drains one channel per cycle once the header reaches the destination.
// XY routing is deadlock-free on the mesh, so the FIFO channel queues
// cannot form a cyclic wait.
//
// Per-packet latency (injection to tail delivery) and blocking time
// (total time the header spent queued for channels) are reported through
// the delivery callback; these are the paper's "average packet latency"
// and "average packet blocking time".
package network

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/mesh"
)

// Direction indexes a node's output channels.
type Direction int

// The six mesh directions plus the processor-router links. Up and Down
// exist on every node for uniform channel indexing but are only routed
// over on meshes with depth > 1.
const (
	East   Direction = iota // +x
	West                    // -x
	North                   // +y
	South                   // -y
	Up                      // +z
	Down                    // -z
	Inject                  // processor -> router (source)
	Eject                   // router -> processor (destination)
	numDirs
)

var dirNames = [...]string{"East", "West", "North", "South", "Up", "Down", "Inject", "Eject"}

// String names the direction.
func (d Direction) String() string {
	if d < 0 || int(d) >= len(dirNames) {
		return fmt.Sprintf("Direction(%d)", int(d))
	}
	return dirNames[d]
}

// Config carries the network parameters from the paper's Section 5.
type Config struct {
	// RouterDelay is t_s, the cycles a header spends being routed
	// through a node. The paper (after ProcSimity) uses 3.
	RouterDelay float64
	// PacketLen is P_len, the packet length in flits. The paper uses 8.
	PacketLen int
	// BufferDepth is the per-channel router FIFO depth in flits. A
	// worm spans ceil(PacketLen/BufferDepth) channels; depth 1 is
	// classic single-flit wormhole (the worm stretches over PacketLen
	// channels), large depths approach virtual cut-through.
	BufferDepth int
	// Topology selects mesh (the paper) or torus (its future work).
	Topology Topology

	// MaxRetries bounds how often a packet bounced off a failed link
	// (fault.go) is re-requested before the send fails; zero loses the
	// packet on its first bounce. Fault-free runs never consult it.
	MaxRetries int
	// RetryBackoff is the base backoff in cycles between a bounce and
	// its retry; attempt k waits RetryBackoff * 2^(k-1) cycles
	// (exponential backoff in simulated time). Zero retries
	// immediately (a zero-delay event).
	RetryBackoff float64
	// RetryDeadline bounds a packet's total lifetime in cycles from
	// injection: a retry that would be scheduled past the deadline
	// loses the packet instead. Zero means no deadline.
	RetryDeadline float64
}

// DefaultConfig returns the paper's parameters: t_s = 3, P_len = 8,
// with classic single-flit wormhole buffers. The retry policy — only
// consulted when links fail — allows 4 attempts at a 32-cycle base
// backoff with no deadline.
func DefaultConfig() Config {
	return Config{RouterDelay: 3, PacketLen: 8, BufferDepth: 1,
		MaxRetries: 4, RetryBackoff: 32}
}

// Validate reports the first invalid parameter, or nil. New panics on
// exactly these conditions; callers that defer construction (the
// simulator builds the network lazily on first Send) validate up front
// so a bad configuration fails at setup, not mid-run.
func (c Config) Validate() error {
	if c.PacketLen < 1 {
		return fmt.Errorf("network: PacketLen %d, must be at least 1 flit", c.PacketLen)
	}
	if err := checkDelay("RouterDelay", c.RouterDelay); err != nil {
		return err
	}
	if c.BufferDepth < 1 {
		return fmt.Errorf("network: BufferDepth %d, must be at least 1 flit", c.BufferDepth)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("network: negative MaxRetries %d", c.MaxRetries)
	}
	if err := checkDelay("RetryBackoff", c.RetryBackoff); err != nil {
		return err
	}
	return checkDelay("RetryDeadline", c.RetryDeadline)
}

// checkDelay rejects a negative, NaN or infinite delay, naming the
// Config field. NaN fails every "< 0" check, so it is tested first.
func checkDelay(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("network: %s %v is not finite", field, v)
	}
	if v < 0 {
		return fmt.Errorf("network: negative %s %g", field, v)
	}
	return nil
}

// window returns the number of channels a worm spans.
func (c Config) window() int {
	w := (c.PacketLen + c.BufferDepth - 1) / c.BufferDepth
	if w < 1 {
		w = 1
	}
	return w
}

// Packet is one wormhole message in flight or delivered.
type Packet struct {
	ID  uint64
	Src mesh.Coord
	Dst mesh.Coord

	CreatedAt   des.Time // injection request time
	DeliveredAt des.Time // tail received at destination
	Blocked     des.Time // total header queueing time
	Hops        int      // link hops (Manhattan distance)

	path    []int32 // channel ids: inject, links..., eject
	hop     int     // next channel index to acquire
	relNext int     // next path index the tail-drain events release

	waitStart des.Time // when the header began waiting (if queued)

	// Link-fault state (fault.go). attempt counts bounces off failed
	// links; detoured marks a route the minimal-misroute router had to
	// bend around dead links, which puts patience timers on the
	// packet's queue waits (the deadlock escape, see fault.go). lost
	// records a packet that exhausted its retry policy. waitEv and
	// waitChan track one pending patience timer. All zero on
	// fault-free runs.
	attempt  int
	detoured bool
	lost     bool
	waitEv   des.Handle
	waitChan int32

	onDelivered func(*Packet)
	onLost      func(*Packet)
}

// Latency returns the packet's injection-to-delivery latency; valid
// after delivery.
func (p *Packet) Latency() des.Time { return p.DeliveredAt - p.CreatedAt }

type channel struct {
	busy  bool
	down  bool      // link failed (fault.go): rejects new grants
	queue []*Packet // FIFO of waiting headers
}

// Network is the wormhole interconnect for a w x l x d mesh (d == 1 is
// the paper's 2D fabric).
type Network struct {
	eng *des.Engine
	w   int
	l   int
	d   int
	cfg Config

	channels []channel
	inFlight int
	nextID   uint64

	delivered uint64
	grants    uint64
	releases  uint64

	// Link-fault state (fault.go). downLinks counts failed physical
	// links; every fault branch in the hot paths is gated on it being
	// non-zero, so fault-free runs pay one integer compare and stay
	// bit-identical to the pre-fault engine.
	downLinks    int
	lost         uint64
	linkFails    uint64
	linkRecovers uint64
	reroutes     uint64
	retries      uint64

	// Detour-router scratch (fault.go), reused across reroutes so the
	// steady-state bounce/retry cycle allocates nothing.
	bfsSeen   []uint32
	bfsEpoch  uint32
	bfsDir    []int8
	bfsQueue  []int32
	bounceBuf []*Packet

	// Event functions bound once at construction; packets travel as
	// event arguments, so routing a worm allocates no closures
	// (des.ScheduleEvent).
	requestFn des.EventFunc
	releaseFn des.EventFunc
	deliverFn des.EventFunc
	retryFn   des.EventFunc
	timeoutFn des.EventFunc
}

// New builds the interconnect on the given engine and 2D mesh
// dimensions — the depth-1 case of New3D.
func New(eng *des.Engine, w, l int, cfg Config) *Network {
	return New3D(eng, w, l, 1, cfg)
}

// New3D builds the interconnect on the given engine and w x l x d mesh
// dimensions. Routing is XYZ dimension-ordered, which is deadlock-free
// on the mesh; the torus topology wraps the x and y rings only and is
// rejected on depths above 1.
func New3D(eng *des.Engine, w, l, d int, cfg Config) *Network {
	if w <= 0 || l <= 0 || d <= 0 {
		panic(fmt.Sprintf("network: invalid dimensions %dx%dx%d", w, l, d))
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.Topology == TorusTopology && d > 1 {
		panic("network: torus topology is 2D-only (no z rings); use depth 1")
	}
	n := &Network{
		eng:      eng,
		w:        w,
		l:        l,
		d:        d,
		cfg:      cfg,
		channels: make([]channel, w*l*d*int(numDirs)*numVCs),
	}
	n.requestFn = func(a any) { n.request(a.(*Packet)) }
	n.releaseFn = func(a any) {
		p := a.(*Packet)
		id := p.path[p.relNext]
		p.relNext++
		n.release(id)
	}
	n.deliverFn = func(a any) { n.deliver(a.(*Packet)) }
	n.retryFn = func(a any) { n.retry(a.(*Packet)) }
	n.timeoutFn = func(a any) { n.waitTimeout(a.(*Packet)) }
	return n
}

// W returns the mesh width.
func (n *Network) W() int { return n.w }

// L returns the mesh length.
func (n *Network) L() int { return n.l }

// D returns the mesh depth; 1 for the 2D fabric.
func (n *Network) D() int { return n.d }

// Config returns the network parameters.
func (n *Network) Config() Config { return n.cfg }

// InFlight returns the number of packets not yet fully delivered.
func (n *Network) InFlight() int { return n.inFlight }

// Delivered returns the count of fully delivered packets.
func (n *Network) Delivered() uint64 { return n.delivered }

// BusyChannels returns how many channels are currently held; useful for
// conservation checks in tests.
func (n *Network) BusyChannels() int {
	c := 0
	for i := range n.channels {
		if n.channels[i].busy {
			c++
		}
	}
	return c
}

// chanID computes the channel id for node (x,y) in plane 0, direction
// d, on virtual channel 0.
func (n *Network) chanID(x, y int, d Direction) int32 {
	return n.chanIDVC(x, y, d, 0)
}

// chanIDVC computes the channel id for node (x,y) in plane 0,
// direction d, virtual channel vc.
func (n *Network) chanIDVC(x, y int, d Direction, vc int) int32 {
	return n.chanID3D(x, y, 0, d, vc)
}

// chanID3D computes the channel id for node (x,y,z), direction d,
// virtual channel vc.
func (n *Network) chanID3D(x, y, z int, d Direction, vc int) int32 {
	return int32((((z*n.l+y)*n.w+x)*int(numDirs)+int(d))*numVCs + vc)
}

// NoContentionLatency returns the latency of a packet over d link hops
// through an idle network: the header acquires d+2 channels (inject, d
// links, eject) at a rate of one per 1+RouterDelay cycles, and the tail
// lands PacketLen cycles after the last acquisition.
func (n *Network) NoContentionLatency(d int) des.Time {
	return des.Time(d+1)*(1+n.cfg.RouterDelay) + des.Time(n.cfg.PacketLen)
}

// Route returns the XYZ dimension-ordered channel path from src to
// dst: correct x first, then y, then z, bracketed by src's injection
// and dst's ejection channels. On the (depth-1) torus each planar
// dimension takes the minimal ring direction with the dateline
// virtual-channel switch (see Topology).
func (n *Network) Route(src, dst mesh.Coord) []int32 {
	n.checkCoord(src)
	n.checkCoord(dst)
	path := make([]int32, 0, n.cfg.Topology.Distance(n.w, n.l, src, dst)+2)
	return n.appendRoute(path, src, dst)
}

// appendRoute appends the XYZ dimension-ordered path to path (which
// routeAround reuses with a caller-owned buffer, keeping retries
// allocation-free once the buffer has grown).
func (n *Network) appendRoute(path []int32, src, dst mesh.Coord) []int32 {
	path = append(path, n.chanID3D(src.X, src.Y, src.Z, Inject, 0))
	if n.cfg.Topology == TorusTopology {
		path = n.torusRoute(path, src, dst)
	} else {
		x, y, z := src.X, src.Y, src.Z
		for x != dst.X {
			if dst.X > x {
				path = append(path, n.chanID3D(x, y, z, East, 0))
				x++
			} else {
				path = append(path, n.chanID3D(x, y, z, West, 0))
				x--
			}
		}
		for y != dst.Y {
			if dst.Y > y {
				path = append(path, n.chanID3D(x, y, z, North, 0))
				y++
			} else {
				path = append(path, n.chanID3D(x, y, z, South, 0))
				y--
			}
		}
		for z != dst.Z {
			if dst.Z > z {
				path = append(path, n.chanID3D(x, y, z, Up, 0))
				z++
			} else {
				path = append(path, n.chanID3D(x, y, z, Down, 0))
				z--
			}
		}
	}
	path = append(path, n.chanID3D(dst.X, dst.Y, dst.Z, Eject, 0))
	return path
}

func (n *Network) checkCoord(c mesh.Coord) {
	if c.X < 0 || c.X >= n.w || c.Y < 0 || c.Y >= n.l || c.Z < 0 || c.Z >= n.d {
		panic(fmt.Sprintf("network: coordinate %v outside %dx%dx%d mesh", c, n.w, n.l, n.d))
	}
}

// Send injects a packet from src to dst at the current simulation time.
// onDelivered fires (once) when the packet's tail reaches dst; it may be
// nil. The returned packet's metric fields are final only after
// delivery. On a network with failed links the send may be lost (see
// SendWithLoss); Send itself reports losses only through the Lost
// counter.
func (n *Network) Send(src, dst mesh.Coord, onDelivered func(*Packet)) *Packet {
	return n.SendWithLoss(src, dst, onDelivered, nil)
}

// SendWithLoss is Send with a loss callback: onLost fires (once) if the
// packet exhausts its retry policy or no route around failed links
// exists — possibly synchronously, when the source is already cut off
// at injection time. Exactly one of onDelivered and onLost ever fires.
func (n *Network) SendWithLoss(src, dst mesh.Coord, onDelivered, onLost func(*Packet)) *Packet {
	p := new(Packet)
	n.SendInto(p, src, dst, onDelivered, onLost)
	return p
}

// SendInto is SendWithLoss into a caller-owned record: p is reset and
// reused, path buffer included, so a caller that keeps one record per
// sender sends without allocating once the buffer has grown. p must
// not be in flight: the network holds no reference to a packet once
// its delivery or loss callback has fired (the last tail-drain release
// shares the delivery time and fires before it), so the record may be
// re-sent from inside either callback.
func (n *Network) SendInto(p *Packet, src, dst mesh.Coord, onDelivered, onLost func(*Packet)) {
	n.checkCoord(src)
	n.checkCoord(dst)
	hops := n.cfg.Topology.Distance(n.w, n.l, src, dst)
	path := p.path[:0]
	if cap(path) < hops+2 {
		path = make([]int32, 0, hops+2)
	}
	*p = Packet{
		ID:          n.nextID,
		Src:         src,
		Dst:         dst,
		CreatedAt:   n.eng.Now(),
		Hops:        hops,
		path:        path,
		onDelivered: onDelivered,
		onLost:      onLost,
	}
	n.nextID++
	n.inFlight++
	if n.downLinks == 0 {
		// Fault-free fast path: the XYZ route, identically to the
		// pre-fault engine.
		p.path = n.appendRoute(p.path, src, dst)
	} else if !n.reroute(p) {
		n.lose(p)
		return
	}
	n.request(p)
}

// request asks for the packet's next channel, queueing on contention.
// A stalled header freezes the worm behind it: tail releases are driven
// by header progress, so they simply do not happen while the header
// waits — wormhole's chained blocking. A next hop whose link has
// failed bounces the worm back to its source (fault.go).
func (n *Network) request(p *Packet) {
	ch := &n.channels[p.path[p.hop]]
	if n.downLinks != 0 && ch.down {
		n.bounce(p)
		return
	}
	if ch.busy {
		ch.queue = append(ch.queue, p)
		p.waitStart = n.eng.Now()
		if p.detoured {
			// Detoured worms wait with bounded patience: misrouted
			// paths escape the XYZ turn discipline, and a bounded wait
			// (bounce on expiry) is what keeps chained blocking cycles
			// from wedging the fabric (fault.go).
			p.waitChan = p.path[p.hop]
			p.waitEv = n.eng.ScheduleEvent(n.patience(), n.timeoutFn, p)
		}
		return
	}
	n.grant(p)
}

// grant gives the packet channel p.hop and advances the header. The
// worm spans window() channels, so acquiring channel j frees channel
// j-window.
func (n *Network) grant(p *Packet) {
	j := p.hop
	ch := &n.channels[p.path[j]]
	if ch.busy {
		panic("network: grant of busy channel")
	}
	ch.busy = true
	n.grants++
	p.hop++

	if tail := j - n.cfg.window(); tail >= 0 {
		n.release(p.path[tail])
	}

	if j < len(p.path)-1 {
		// Cross this channel (1 cycle), then spend RouterDelay in the
		// next router before requesting the next channel.
		n.eng.ScheduleEvent(1+n.cfg.RouterDelay, n.requestFn, p)
		return
	}

	// Header acquired the ejection channel; the tail lands PacketLen
	// cycles later and the still-held trailing channels drain one per
	// cycle behind it. The drain events fire in path order (one cycle
	// apart), so the packet itself carries the next index to release.
	last := len(p.path) - 1
	deliverAt := n.eng.Now() + des.Time(n.cfg.PacketLen)
	lo := last - n.cfg.window() + 1
	if lo < 0 {
		lo = 0
	}
	p.relNext = lo
	for k := lo; k <= last; k++ {
		n.eng.AtEvent(deliverAt-des.Time(last-k), n.releaseFn, p)
	}
	n.eng.AtEvent(deliverAt, n.deliverFn, p)
}

// release frees a channel and hands it to the next queued header.
func (n *Network) release(id int32) {
	ch := &n.channels[id]
	if !ch.busy {
		panic("network: release of free channel")
	}
	ch.busy = false
	n.releases++
	if len(ch.queue) == 0 {
		return
	}
	next := ch.queue[0]
	ch.queue = ch.queue[:copy(ch.queue, ch.queue[1:])]
	next.Blocked += n.eng.Now() - next.waitStart
	if next.waitEv.Valid() {
		n.eng.Cancel(next.waitEv)
		next.waitEv = des.Handle{}
	}
	n.grant(next)
}

// deliver finalises the packet once its tail reaches the destination.
func (n *Network) deliver(p *Packet) {
	p.DeliveredAt = n.eng.Now()
	n.inFlight--
	n.delivered++
	if p.onDelivered != nil {
		p.onDelivered(p)
	}
}
