package network

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/mesh"
	"repro/internal/stats"
)

func newNet(tb testing.TB, w, l int) (*des.Engine, *Network) {
	tb.Helper()
	eng := des.NewEngine()
	return eng, New(eng, w, l, DefaultConfig())
}

func TestRouteXYOrder(t *testing.T) {
	_, n := newNet(t, 8, 8)
	path := n.Route(mesh.Coord{X: 1, Y: 1}, mesh.Coord{X: 4, Y: 3})
	// inject + 3 east + 2 north + eject.
	if len(path) != 7 {
		t.Fatalf("path length = %d, want 7", len(path))
	}
	if path[0] != n.chanID(1, 1, Inject) {
		t.Fatal("path does not start with source injection channel")
	}
	if path[1] != n.chanID(1, 1, East) || path[2] != n.chanID(2, 1, East) || path[3] != n.chanID(3, 1, East) {
		t.Fatal("x not corrected first")
	}
	if path[4] != n.chanID(4, 1, North) || path[5] != n.chanID(4, 2, North) {
		t.Fatal("y not corrected after x")
	}
	if path[6] != n.chanID(4, 3, Eject) {
		t.Fatal("path does not end with destination ejection channel")
	}
}

func TestRouteWestSouth(t *testing.T) {
	_, n := newNet(t, 8, 8)
	path := n.Route(mesh.Coord{X: 5, Y: 6}, mesh.Coord{X: 3, Y: 4})
	if len(path) != 6 {
		t.Fatalf("path length = %d, want 6", len(path))
	}
	if path[1] != n.chanID(5, 6, West) || path[2] != n.chanID(4, 6, West) {
		t.Fatal("west leg wrong")
	}
	if path[3] != n.chanID(3, 6, South) || path[4] != n.chanID(3, 5, South) {
		t.Fatal("south leg wrong")
	}
}

func TestRouteSelf(t *testing.T) {
	_, n := newNet(t, 4, 4)
	path := n.Route(mesh.Coord{X: 2, Y: 2}, mesh.Coord{X: 2, Y: 2})
	if len(path) != 2 {
		t.Fatalf("self route length = %d, want 2 (inject+eject)", len(path))
	}
}

func TestSinglePacketLatencyNoContention(t *testing.T) {
	eng, n := newNet(t, 8, 8)
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 3, Y: 2}
	var got *Packet
	n.Send(src, dst, func(p *Packet) { got = p })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	d := mesh.ManhattanDist(src, dst)
	want := n.NoContentionLatency(d)
	if got.Latency() != want {
		t.Fatalf("latency = %v, want %v", got.Latency(), want)
	}
	if got.Blocked != 0 {
		t.Fatalf("blocked = %v on idle network", got.Blocked)
	}
	if got.Hops != d {
		t.Fatalf("hops = %d, want %d", got.Hops, d)
	}
}

func TestNoContentionLatencyFormula(t *testing.T) {
	_, n := newNet(t, 8, 8)
	// ts=3, Plen=8: d=1 -> 2*4+8 = 16; d=0 -> 4+8 = 12.
	if got := n.NoContentionLatency(1); got != 16 {
		t.Fatalf("NoContentionLatency(1) = %v, want 16", got)
	}
	if got := n.NoContentionLatency(0); got != 12 {
		t.Fatalf("NoContentionLatency(0) = %v, want 12", got)
	}
}

func TestTwoPacketsSameChannelSerialize(t *testing.T) {
	eng, n := newNet(t, 8, 1)
	src, dst := mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 4, Y: 0}
	var a, b *Packet
	n.Send(src, dst, func(p *Packet) { a = p })
	n.Send(src, dst, func(p *Packet) { b = p })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if a == nil || b == nil {
		t.Fatal("packets not delivered")
	}
	// Identical path: the second packet must block on the injection
	// channel and be delivered strictly later.
	if b.Blocked == 0 {
		t.Fatal("second packet reports zero blocking time")
	}
	if a.Blocked != 0 {
		t.Fatalf("first packet blocked %v, want 0", a.Blocked)
	}
	if b.DeliveredAt <= a.DeliveredAt {
		t.Fatalf("deliveries not serialized: %v then %v", a.DeliveredAt, b.DeliveredAt)
	}
	if b.Latency() <= a.Latency() {
		t.Fatalf("blocked packet latency %v <= unblocked %v", b.Latency(), a.Latency())
	}
}

func TestDisjointPathsNoInterference(t *testing.T) {
	eng, n := newNet(t, 8, 8)
	var a, b *Packet
	n.Send(mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 3, Y: 0}, func(p *Packet) { a = p })
	n.Send(mesh.Coord{X: 0, Y: 7}, mesh.Coord{X: 3, Y: 7}, func(p *Packet) { b = p })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Blocked != 0 || b.Blocked != 0 {
		t.Fatalf("disjoint packets blocked: %v, %v", a.Blocked, b.Blocked)
	}
	if a.Latency() != b.Latency() {
		t.Fatalf("equal-distance disjoint latencies differ: %v vs %v", a.Latency(), b.Latency())
	}
}

func TestCrossTrafficBlocksOnSharedLink(t *testing.T) {
	eng, n := newNet(t, 8, 8)
	// Both routes use East channels of row y=0 between x=2..5.
	var a, b *Packet
	n.Send(mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 6, Y: 0}, func(p *Packet) { a = p })
	n.Send(mesh.Coord{X: 2, Y: 0}, mesh.Coord{X: 6, Y: 1}, func(p *Packet) { b = p })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Blocked+b.Blocked == 0 {
		t.Fatal("no blocking on overlapping routes injected simultaneously")
	}
}

func TestConservationAllDelivered(t *testing.T) {
	eng, n := newNet(t, 16, 22)
	s := stats.NewStream(1)
	const total = 500
	delivered := 0
	for i := 0; i < total; i++ {
		src := mesh.Coord{X: s.Intn(16), Y: s.Intn(22)}
		dst := mesh.Coord{X: s.Intn(16), Y: s.Intn(22)}
		at := des.Time(s.Intn(100))
		eng.At(at, func() { n.Send(src, dst, func(*Packet) { delivered++ }) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != total {
		t.Fatalf("delivered %d of %d", delivered, total)
	}
	if n.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", n.InFlight())
	}
	if n.BusyChannels() != 0 {
		t.Fatalf("%d channels still busy after drain", n.BusyChannels())
	}
	if n.grants != n.releases {
		t.Fatalf("grants %d != releases %d", n.grants, n.releases)
	}
}

// Property: under random traffic every packet is delivered, latency is
// at least the no-contention bound with equality iff unblocked... (the
// bound must hold), and all channels are freed.
func TestPropertyRandomTrafficSound(t *testing.T) {
	f := func(seed int64) bool {
		eng, n := newNet(t, 6, 7)
		s := stats.NewStream(seed)
		count := s.Intn(60) + 1
		okAll := true
		var packets []*Packet
		for i := 0; i < count; i++ {
			src := mesh.Coord{X: s.Intn(6), Y: s.Intn(7)}
			dst := mesh.Coord{X: s.Intn(6), Y: s.Intn(7)}
			at := des.Time(s.Intn(50))
			eng.At(at, func() {
				packets = append(packets, n.Send(src, dst, func(p *Packet) {
					if p.Latency() < n.NoContentionLatency(p.Hops) {
						okAll = false
					}
					if p.Blocked < 0 || p.Latency() != n.NoContentionLatency(p.Hops)+p.Blocked {
						okAll = false
					}
				}))
			})
		}
		if err := eng.Run(); err != nil {
			return false
		}
		if len(packets) != count || n.InFlight() != 0 || n.BusyChannels() != 0 {
			return false
		}
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOFairnessOnChannel(t *testing.T) {
	eng, n := newNet(t, 8, 1)
	// Three packets, same source, injected in order at the same time:
	// they must be delivered in injection order (FIFO queue).
	var order []uint64
	for i := 0; i < 3; i++ {
		n.Send(mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 5, Y: 0}, func(p *Packet) {
			order = append(order, p.ID)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] >= order[1] || order[1] >= order[2] {
		t.Fatalf("delivery order = %v, want ascending IDs", order)
	}
}

func TestLongPathReleasesEarlyChannels(t *testing.T) {
	// Path longer than PacketLen: injection channel must free before
	// the first packet is delivered, so a second packet starting at the
	// same node can make progress concurrently.
	eng, n := newNet(t, 16, 1)
	var first, second *Packet
	n.Send(mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 15, Y: 0}, func(p *Packet) { first = p })
	n.Send(mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 15, Y: 0}, func(p *Packet) { second = p })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The second worm follows the first down the same row; with the
	// worm spanning PacketLen=8 channels over a 17-channel path, the
	// second must start before the first fully arrives.
	gap := second.DeliveredAt - first.DeliveredAt
	serial := first.Latency() // a full serial wait would double latency
	if gap >= serial {
		t.Fatalf("second packet fully serialized (gap %v >= %v)", gap, serial)
	}
	if second.Blocked == 0 {
		t.Fatal("second packet never blocked despite shared route")
	}
}

func TestPanicsOnBadConfigAndCoords(t *testing.T) {
	eng := des.NewEngine()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero PacketLen", func() { New(eng, 4, 4, Config{RouterDelay: 3, PacketLen: 0}) })
	mustPanic("negative RouterDelay", func() { New(eng, 4, 4, Config{RouterDelay: -1, PacketLen: 8}) })
	mustPanic("bad dims", func() { New(eng, 0, 4, DefaultConfig()) })
	n := New(eng, 4, 4, DefaultConfig())
	mustPanic("coord out of mesh", func() {
		n.Route(mesh.Coord{X: 4, Y: 0}, mesh.Coord{X: 0, Y: 0})
	})
}

// TestValidateRejectsNonFiniteDelays: NaN passes a "< 0" check, so a
// NaN delay used to reach the event queue, and an infinite one stalled
// every packet. Validate must reject both, and negatives, naming the
// field.
func TestValidateRejectsNonFiniteDelays(t *testing.T) {
	set := map[string]func(*Config, float64){
		"RouterDelay":   func(c *Config, v float64) { c.RouterDelay = v },
		"RetryBackoff":  func(c *Config, v float64) { c.RetryBackoff = v },
		"RetryDeadline": func(c *Config, v float64) { c.RetryDeadline = v },
	}
	for field, mut := range set {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
			cfg := DefaultConfig()
			mut(&cfg, v)
			want := fmt.Sprintf("network: %s %v is not finite", field, v)
			if v == -1 {
				want = fmt.Sprintf("network: negative %s -1", field)
			}
			if err := cfg.Validate(); err == nil || err.Error() != want {
				t.Errorf("%s = %v: Validate error %v, want %q", field, v, err, want)
			}
		}
	}
}

func TestDirectionString(t *testing.T) {
	if East.String() != "East" || Eject.String() != "Eject" {
		t.Fatal("direction names wrong")
	}
	if Direction(99).String() != "Direction(99)" {
		t.Fatal("out-of-range direction name wrong")
	}
}

func TestDeliveredCounter(t *testing.T) {
	eng, n := newNet(t, 4, 4)
	for i := 0; i < 5; i++ {
		n.Send(mesh.Coord{X: 0, Y: 0}, mesh.Coord{X: 3, Y: 3}, nil)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Delivered() != 5 {
		t.Fatalf("Delivered = %d, want 5", n.Delivered())
	}
}

func TestAllToAllOnSubmeshCompletes(t *testing.T) {
	// The paper's communication pattern at small scale: every node of a
	// 3x3 block sends one packet to every other node.
	eng, n := newNet(t, 16, 22)
	block := mesh.Sub(4, 4, 6, 6)
	nodes := block.Nodes()
	sent := 0
	var acc stats.Accumulator
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			src, dst := src, dst
			n.Send(src, dst, func(p *Packet) { acc.Add(float64(p.Latency())) })
			sent++
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if int(acc.N()) != sent {
		t.Fatalf("delivered %d of %d", acc.N(), sent)
	}
	// Mean all-to-all latency must exceed the max no-contention latency
	// (contention is the whole point of the pattern).
	if acc.Mean() <= float64(n.NoContentionLatency(4)) {
		t.Fatalf("mean latency %v suspiciously low", acc.Mean())
	}
}
