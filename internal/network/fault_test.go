package network

import (
	"math/rand"
	"testing"

	"repro/internal/des"
	"repro/internal/mesh"
)

func c2(x, y int) mesh.Coord { return mesh.Coord{X: x, Y: y} }

// checkPath verifies a channel path is well formed: starts at src's
// inject, ends at dst's eject, every interior hop leaves the node the
// previous hop arrived at, and no channel is down.
func checkPath(t *testing.T, n *Network, path []int32, src, dst mesh.Coord) {
	t.Helper()
	if len(path) < 2 {
		t.Fatalf("path too short: %v", path)
	}
	if path[0] != n.chanID3D(src.X, src.Y, src.Z, Inject, 0) {
		t.Fatalf("path does not start at %v's inject", src)
	}
	if path[len(path)-1] != n.chanID3D(dst.X, dst.Y, dst.Z, Eject, 0) {
		t.Fatalf("path does not end at %v's eject", dst)
	}
	x, y, z := src.X, src.Y, src.Z
	for _, id := range path[1 : len(path)-1] {
		d := Direction(int(id) / numVCs % int(numDirs))
		node := int(id) / numVCs / int(numDirs)
		nx, ny, nz := node%n.w, (node/n.w)%n.l, node/(n.w*n.l)
		if nx != x || ny != y || nz != z {
			t.Fatalf("hop %v leaves (%d,%d,%d), header is at (%d,%d,%d)", id, nx, ny, nz, x, y, z)
		}
		if n.channels[id].down {
			t.Fatalf("path crosses down link %v at (%d,%d,%d)", d, x, y, z)
		}
		var ok bool
		x, y, z, ok = n.step(x, y, z, d)
		if !ok {
			t.Fatalf("hop %v falls off the fabric at (%d,%d,%d)", d, nx, ny, nz)
		}
	}
	if x != dst.X || y != dst.Y || z != dst.Z {
		t.Fatalf("path ends at (%d,%d,%d), want %v", x, y, z, dst)
	}
}

func TestLinkCheckErrors(t *testing.T) {
	_, n := newNet(t, 4, 4)
	cases := []struct {
		c mesh.Coord
		d Direction
	}{
		{c2(4, 0), East}, // out of bounds
		{c2(0, 0), Direction(99)},
		{c2(3, 0), East},  // mesh border: no wrap link
		{c2(0, 0), West},  // mesh border
		{c2(0, 3), North}, // mesh border
		{c2(0, 0), South}, // mesh border
		{c2(0, 0), Up},    // depth-1 fabric
		{c2(0, 0), Down},
	}
	for _, tc := range cases {
		if err := n.FailLink(tc.c, tc.d); err == nil {
			t.Errorf("FailLink(%v, %v) accepted", tc.c, tc.d)
		}
	}
	if err := n.FailLink(c2(1, 1), East); err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink(c2(1, 1), East); err == nil {
		t.Error("double FailLink accepted")
	}
	if err := n.RecoverLink(c2(2, 2), North); err == nil {
		t.Error("RecoverLink of an up link accepted")
	}
	if err := n.RecoverLink(c2(1, 1), East); err != nil {
		t.Fatal(err)
	}
	if n.DownLinks() != 0 {
		t.Fatalf("DownLinks = %d after recovery", n.DownLinks())
	}
	if n.LinkFailures() != 1 || n.LinkRecoveries() != 1 {
		t.Fatalf("counters = %d/%d, want 1/1", n.LinkFailures(), n.LinkRecoveries())
	}
}

func TestTorusBorderLinksExist(t *testing.T) {
	eng := des.NewEngine()
	cfg := DefaultConfig()
	cfg.Topology = TorusTopology
	n := New(eng, 4, 4, cfg)
	for _, d := range []Direction{East, West, North, South} {
		for _, c := range []mesh.Coord{c2(0, 0), c2(3, 3)} {
			if err := n.FailLink(c, d); err != nil {
				t.Errorf("torus FailLink(%v, %v): %v", c, d, err)
			}
		}
	}
}

func TestParseDirection(t *testing.T) {
	for d := East; d < numDirs; d++ {
		got, err := ParseDirection(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseDirection(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDirection("Sideways"); err == nil {
		t.Fatal("ParseDirection accepted junk")
	}
}

// With no links down, RouteAround must be the XYZ route, channel for
// channel — the fault-free equivalence the detour router is gated on.
func TestRouteAroundMatchesXYZWhenClean(t *testing.T) {
	for _, topo := range []Topology{MeshTopology, TorusTopology} {
		eng := des.NewEngine()
		cfg := DefaultConfig()
		cfg.Topology = topo
		n := New(eng, 5, 4, cfg)
		rng := rand.New(rand.NewSource(7))
		var buf []int32
		for i := 0; i < 200; i++ {
			src := c2(rng.Intn(5), rng.Intn(4))
			dst := c2(rng.Intn(5), rng.Intn(4))
			want := n.Route(src, dst)
			var ok bool
			buf, ok = n.RouteAround(buf, src, dst)
			if !ok {
				t.Fatalf("%v: no route %v->%v on a clean network", topo, src, dst)
			}
			if len(buf) != len(want) {
				t.Fatalf("%v: route lengths differ %v->%v", topo, src, dst)
			}
			for j := range buf {
				if buf[j] != want[j] {
					t.Fatalf("%v: routes differ at hop %d for %v->%v", topo, j, src, dst)
				}
			}
		}
		if n.Reroutes() != 0 {
			t.Fatalf("%v: Reroutes = %d on a clean network", topo, n.Reroutes())
		}
	}
}

// A down link off the XYZ path must not bend the route either.
func TestRouteAroundKeepsXYZWhenPathClean(t *testing.T) {
	_, n := newNet(t, 6, 6)
	if err := n.FailLink(c2(5, 5), West); err != nil {
		t.Fatal(err)
	}
	want := n.Route(c2(0, 0), c2(3, 0))
	got, ok := n.RouteAround(nil, c2(0, 0), c2(3, 0))
	if !ok || len(got) != len(want) {
		t.Fatalf("route bent by an off-path failure: %v vs %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("route bent by an off-path failure at hop %d", i)
		}
	}
	if n.Reroutes() != 0 {
		t.Fatalf("Reroutes = %d for a clean-path route", n.Reroutes())
	}
}

func TestRouteAroundDetours(t *testing.T) {
	_, n := newNet(t, 6, 6)
	// Cut the XYZ path (0,2) -> (4,2) at its middle link.
	if err := n.FailLink(c2(2, 2), East); err != nil {
		t.Fatal(err)
	}
	src, dst := c2(0, 2), c2(4, 2)
	path, ok := n.RouteAround(nil, src, dst)
	if !ok {
		t.Fatal("no detour found")
	}
	checkPath(t, n, path, src, dst)
	// Minimal misroute: one sidestep costs two extra hops.
	if want := mesh.ManhattanDist(src, dst) + 2 + 2; len(path) != want {
		t.Fatalf("detour length = %d channels, want %d", len(path), want)
	}
}

func TestRouteAroundTorusWrapDetour(t *testing.T) {
	eng := des.NewEngine()
	cfg := DefaultConfig()
	cfg.Topology = TorusTopology
	n := New(eng, 5, 1, cfg)
	// A 5x1 ring: cutting (1,0)->East leaves only the long way round,
	// which crosses the wrap seam.
	if err := n.FailLink(c2(1, 0), East); err != nil {
		t.Fatal(err)
	}
	src, dst := c2(1, 0), c2(2, 0)
	path, ok := n.RouteAround(nil, src, dst)
	if !ok {
		t.Fatal("no wrap detour found")
	}
	checkPath(t, n, path, src, dst)
	if len(path) != 4+2 {
		t.Fatalf("wrap detour length = %d channels, want 6", len(path))
	}
	// The hop leaving x=0 westward crosses the seam and must ride VC1.
	seam := path[2]
	if seam != n.chanIDVC(0, 0, West, 1) {
		t.Fatalf("seam hop = channel %d, want VC1 west from (0,0)", seam)
	}
}

func TestRouteAroundNoRoute(t *testing.T) {
	_, n := newNet(t, 4, 2)
	// Sever the full column between x=1 and x=2.
	for y := 0; y < 2; y++ {
		if err := n.FailLink(c2(1, y), East); err != nil {
			t.Fatal(err)
		}
		if err := n.FailLink(c2(2, y), West); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := n.RouteAround(nil, c2(0, 0), c2(3, 1)); ok {
		t.Fatal("found a route across a severed fabric")
	}
	// The reverse direction is equally cut.
	if _, ok := n.RouteAround(nil, c2(3, 0), c2(0, 0)); ok {
		t.Fatal("found a reverse route across a severed fabric")
	}
	// Within one side routes still exist.
	if _, ok := n.RouteAround(nil, c2(0, 0), c2(1, 1)); !ok {
		t.Fatal("lost routing within the intact half")
	}
}

// A send whose next hop dies mid-flight bounces, backs off, and is
// delivered over a detour; the latency reflects the backoff.
func TestBounceRetryDelivers(t *testing.T) {
	eng, n := newNet(t, 6, 3)
	src, dst := c2(0, 1), c2(4, 1)
	var got *Packet
	var lost bool
	n.SendWithLoss(src, dst, func(p *Packet) { got = p }, func(*Packet) { lost = true })
	// The header crosses inject at t=4 and requests (0,1)->East at
	// t=4; kill (1,1)->East (two hops ahead) at t=6, before the header
	// reaches it at t=8.
	eng.Schedule(6, func() {
		if err := n.FailLink(c2(1, 1), East); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if lost || got == nil {
		t.Fatalf("lost=%v delivered=%v, want delivery", lost, got != nil)
	}
	if n.Retries() != 1 {
		t.Fatalf("Retries = %d, want 1", n.Retries())
	}
	if n.Reroutes() == 0 {
		t.Fatal("delivery did not detour")
	}
	if !got.detoured {
		t.Fatal("packet not marked detoured")
	}
	// Latency includes the bounce, the 32-cycle backoff, and the two
	// extra detour hops.
	if base := n.NoContentionLatency(got.Hops); got.Latency() <= base {
		t.Fatalf("latency %v not inflated over fault-free %v", got.Latency(), base)
	}
	if err := n.CheckConservation(true); err != nil {
		t.Fatal(err)
	}
}

// A packet bounced with no remaining route is lost, deterministically,
// and the loss callback fires exactly once.
func TestBounceNoRouteLoses(t *testing.T) {
	eng, n := newNet(t, 4, 1)
	var lost, delivered int
	n.SendWithLoss(c2(0, 0), c2(3, 0), func(*Packet) { delivered++ }, func(*Packet) { lost++ })
	// Kill the second link while the header crosses the first.
	eng.Schedule(5, func() {
		if err := n.FailLink(c2(1, 0), East); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if lost != 1 || delivered != 0 {
		t.Fatalf("lost=%d delivered=%d, want 1/0", lost, delivered)
	}
	if n.Lost() != 1 || n.Delivered() != 0 {
		t.Fatalf("counters lost=%d delivered=%d", n.Lost(), n.Delivered())
	}
	if err := n.CheckConservation(true); err != nil {
		t.Fatal(err)
	}
}

// A send injected when the source is already cut off loses
// synchronously.
func TestSendCutOffLosesSynchronously(t *testing.T) {
	_, n := newNet(t, 2, 1)
	if err := n.FailLink(c2(0, 0), East); err != nil {
		t.Fatal(err)
	}
	var lost bool
	p := n.SendWithLoss(c2(0, 0), c2(1, 0), nil, func(*Packet) { lost = true })
	if !lost || !p.Lost() {
		t.Fatal("cut-off send not lost synchronously")
	}
	if n.InFlight() != 0 {
		t.Fatalf("InFlight = %d", n.InFlight())
	}
	if err := n.CheckConservation(true); err != nil {
		t.Fatal(err)
	}
}

// Headers queued on a failing link bounce immediately; the current
// holder drains its worm across the link (fail-stop at acquisition).
func TestFailLinkBouncesQueuedHolderDrains(t *testing.T) {
	eng, n := newNet(t, 4, 2)
	var d1, d2, lost int
	// P1 and P2 contend for (1,0)->East; P2 queues behind P1.
	n.Send(c2(0, 0), c2(3, 0), func(*Packet) { d1++ })
	n.SendWithLoss(c2(1, 0), c2(3, 0), func(*Packet) { d2++ }, func(*Packet) { lost++ })
	// Fail the shared link while P1 holds it and P2 is queued: P1
	// drains normally, P2 bounces and detours through y=1.
	eng.Schedule(10, func() {
		if !n.channels[n.chanID(1, 0, East)].busy {
			t.Error("test premise broken: (1,0)->East not held at t=10")
		}
		if err := n.FailLink(c2(1, 0), East); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d1 != 1 || d2 != 1 || lost != 0 {
		t.Fatalf("d1=%d d2=%d lost=%d, want both delivered", d1, d2, lost)
	}
	if n.Retries() == 0 {
		t.Fatal("queued packet did not retry")
	}
	if err := n.CheckConservation(true); err != nil {
		t.Fatal(err)
	}
}

// Repeated just-in-time failures exhaust the retry budget: attempt
// MaxRetries+1 loses the packet.
func TestRetryExhaustion(t *testing.T) {
	eng := des.NewEngine()
	cfg := DefaultConfig()
	cfg.MaxRetries = 2
	n := New(eng, 4, 1, cfg)
	var lost, delivered int
	// On a 4x1 line the only route is the east chain. A poller fails
	// (2,0)->East the moment the header holds (1,0)->East — so the
	// next request bounces — and recovers it during the backoff, so
	// every reroute succeeds and every attempt bounces again.
	watch := n.chanID(1, 0, East)
	target := c2(2, 0)
	var poll func()
	poll = func() {
		if delivered+lost > 0 {
			if n.LinkDown(target, East) {
				if err := n.RecoverLink(target, East); err != nil {
					t.Error(err)
				}
			}
			return
		}
		if n.channels[watch].busy && !n.LinkDown(target, East) {
			if err := n.FailLink(target, East); err != nil {
				t.Error(err)
			}
		} else if !n.channels[watch].busy && n.LinkDown(target, East) {
			if err := n.RecoverLink(target, East); err != nil {
				t.Error(err)
			}
		}
		eng.Schedule(1, poll)
	}
	n.SendWithLoss(c2(0, 0), c2(3, 0), func(*Packet) { delivered++ }, func(*Packet) { lost++ })
	eng.Schedule(0.5, poll)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 || lost != 1 {
		t.Fatalf("delivered=%d lost=%d, want retry exhaustion", delivered, lost)
	}
	if n.Retries() != 2 {
		t.Fatalf("Retries = %d, want MaxRetries = 2", n.Retries())
	}
	if err := n.CheckConservation(true); err != nil {
		t.Fatal(err)
	}
}

// RetryDeadline loses a packet whose next backoff lands past its
// lifetime bound.
func TestRetryDeadline(t *testing.T) {
	eng := des.NewEngine()
	cfg := DefaultConfig()
	cfg.MaxRetries = 100
	cfg.RetryDeadline = 20 // first backoff (32 cycles) already too late
	n := New(eng, 2, 1, cfg)
	var lost int
	n.SendWithLoss(c2(0, 0), c2(1, 0), nil, func(*Packet) { lost++ })
	eng.Schedule(0.5, func() {
		if err := n.FailLink(c2(0, 0), East); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if lost != 1 {
		t.Fatalf("lost = %d, want deadline loss", lost)
	}
	if n.Retries() != 0 {
		t.Fatalf("Retries = %d, want 0 (deadline beat the first retry)", n.Retries())
	}
}

// A detoured header stuck in a queue bounces after its patience and is
// still delivered once the congestion clears.
func TestDetouredPatienceTimeout(t *testing.T) {
	// A single queue wait only exceeds patience under deep chained
	// blocking: a worm at the back of a long chain holds its acquired
	// channels for the whole chain's drain time. Six 32-flit worms
	// converge on (7,0); the (0,0) sender acquires (0,0)->East and
	// then blocks behind the other five for far longer than patience.
	// The detoured packet queues on that held channel, must time out,
	// bounce, and still be delivered once the chain drains.
	eng := des.NewEngine()
	cfg := DefaultConfig()
	cfg.PacketLen = 32
	cfg.MaxRetries = 20
	n := New(eng, 8, 2, cfg)
	chain := 0
	for i := 0; i < 6; i++ {
		n.Send(c2(i, 0), c2(7, 0), func(*Packet) { chain++ })
	}
	// Cut (1,1)->East: the (0,1)->(3,0) route must bend down into the
	// congested row 0 at x=0.
	if err := n.FailLink(c2(1, 1), East); err != nil {
		t.Fatal(err)
	}
	var det *Packet
	eng.Schedule(10, func() {
		n.Send(c2(0, 1), c2(3, 0), func(p *Packet) { det = p })
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if chain != 6 || det == nil {
		t.Fatalf("chain=%d det=%v, want all delivered", chain, det != nil)
	}
	if n.Retries() == 0 {
		t.Fatal("detoured packet never timed out of a queue")
	}
	if err := n.CheckConservation(true); err != nil {
		t.Fatal(err)
	}
}

// After fail + recover the network is indistinguishable from one that
// never failed: identical per-packet latencies on the same traffic.
func TestRecoveredNetworkMatchesPristine(t *testing.T) {
	run := func(scar bool) []des.Time {
		eng := des.NewEngine()
		n := New(eng, 5, 5, DefaultConfig())
		if scar {
			for _, d := range []Direction{East, North} {
				if err := n.FailLink(c2(2, 2), d); err != nil {
					t.Fatal(err)
				}
				if err := n.RecoverLink(c2(2, 2), d); err != nil {
					t.Fatal(err)
				}
			}
		}
		var lat []des.Time
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 60; i++ {
			src := c2(rng.Intn(5), rng.Intn(5))
			dst := c2(rng.Intn(5), rng.Intn(5))
			eng.Schedule(des.Time(i), func() {
				n.Send(src, dst, func(p *Packet) { lat = append(lat, p.Latency()) })
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return lat
	}
	pristine, scarred := run(false), run(true)
	if len(pristine) != len(scarred) {
		t.Fatal("delivery counts differ")
	}
	for i := range pristine {
		if pristine[i] != scarred[i] {
			t.Fatalf("latency %d differs: %v vs %v", i, pristine[i], scarred[i])
		}
	}
}

// Randomized churn: concurrent traffic under link flapping drains with
// perfect conservation at several geometries and seeds.
func TestLinkChurnConservation(t *testing.T) {
	type geom struct {
		w, l int
		topo Topology
	}
	for _, g := range []geom{{6, 6, MeshTopology}, {5, 4, TorusTopology}, {8, 2, MeshTopology}} {
		for seed := int64(1); seed <= 4; seed++ {
			eng := des.NewEngine()
			cfg := DefaultConfig()
			cfg.Topology = g.topo
			n := New(eng, g.w, g.l, cfg)
			rng := rand.New(rand.NewSource(seed))
			var delivered, lost int
			sends := 300
			for i := 0; i < sends; i++ {
				src := c2(rng.Intn(g.w), rng.Intn(g.l))
				dst := c2(rng.Intn(g.w), rng.Intn(g.l))
				eng.Schedule(des.Time(rng.Intn(400)), func() {
					n.SendWithLoss(src, dst,
						func(*Packet) { delivered++ },
						func(*Packet) { lost++ })
				})
			}
			// Link flapper: every few cycles fail a random up link or
			// recover a random down one.
			var downs []struct {
				c mesh.Coord
				d Direction
			}
			for i := 0; i < 120; i++ {
				eng.Schedule(des.Time(rng.Intn(500)), func() {
					if len(downs) > 0 && rng.Intn(2) == 0 {
						k := rng.Intn(len(downs))
						if err := n.RecoverLink(downs[k].c, downs[k].d); err != nil {
							t.Error(err)
						}
						downs = append(downs[:k], downs[k+1:]...)
						return
					}
					c := c2(rng.Intn(g.w), rng.Intn(g.l))
					d := Direction(rng.Intn(4))
					if !n.LinkExists(c, d) || n.LinkDown(c, d) {
						return
					}
					if err := n.FailLink(c, d); err != nil {
						t.Error(err)
						return
					}
					downs = append(downs, struct {
						c mesh.Coord
						d Direction
					}{c, d})
				})
			}
			if err := eng.Run(); err != nil {
				t.Fatalf("%dx%d/%v seed %d: %v", g.w, g.l, g.topo, seed, err)
			}
			if delivered+lost != sends {
				t.Fatalf("%dx%d/%v seed %d: delivered %d + lost %d != sent %d",
					g.w, g.l, g.topo, seed, delivered, lost, sends)
			}
			if uint64(delivered) != n.Delivered() || uint64(lost) != n.Lost() {
				t.Fatalf("callback counts diverge from counters")
			}
			if err := n.CheckConservation(true); err != nil {
				t.Fatalf("%dx%d/%v seed %d: %v", g.w, g.l, g.topo, seed, err)
			}
		}
	}
}
