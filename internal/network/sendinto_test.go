package network

import (
	"testing"

	"repro/internal/des"
	"repro/internal/mesh"
)

// sendOutcome is what one send of the reuse chain reports.
type sendOutcome struct {
	latency, blocked des.Time
	hops             int
	lost             bool
	retries          uint64 // network retry count when the callback fired
}

// reuseChain runs a chain of four sends on a link-faulted 8x2 fabric,
// each issued from the previous send's delivery or loss callback, and
// returns what each send reported. With reuse, every send re-sends one
// Packet record through SendInto from inside that record's own
// callback; without, each takes a fresh SendWithLoss record. The
// chain forces, in order:
//
//  0. a detour patience timeout: (1,1)->East is cut, so (0,1)->(3,0)
//     bends into row 0, where six 32-flit worms hold the channels far
//     longer than patience; the header bounces off the queue and a
//     backoff retry delivers it;
//  1. a bounce off a link that fails ahead of the header, (2,0)->East,
//     and a backoff retry around it;
//  2. a bounce off (5,1)->East whose retry finds the destination's
//     ejection link down too: the retry loses the packet;
//  3. a send whose only routes end at that dead ejection link: it is
//     lost synchronously, inside SendInto.
func reuseChain(t *testing.T, reuse bool) []sendOutcome {
	t.Helper()
	eng := des.NewEngine()
	cfg := DefaultConfig()
	cfg.PacketLen = 32
	cfg.MaxRetries = 20
	n := New(eng, 8, 2, cfg)
	for i := 0; i < 6; i++ {
		n.Send(c2(i, 0), c2(7, 0), nil)
	}
	if err := n.FailLink(c2(1, 1), East); err != nil {
		t.Fatal(err)
	}
	failAt := func(delay des.Time, c mesh.Coord, d Direction) {
		eng.Schedule(delay, func() {
			if err := n.FailLink(c, d); err != nil {
				t.Error(err)
			}
		})
	}
	steps := []struct {
		src, dst mesh.Coord
		before   func()
	}{
		{c2(0, 1), c2(3, 0), nil},
		{c2(0, 0), c2(7, 0), func() { failAt(6, c2(2, 0), East) }},
		{c2(4, 1), c2(7, 1), func() { failAt(6, c2(5, 1), East); failAt(7, c2(7, 1), Eject) }},
		{c2(6, 0), c2(7, 1), nil},
	}
	var rec Packet
	var out []sendOutcome
	var send func()
	done := func(p *Packet) {
		if err := n.CheckConservation(false); err != nil {
			t.Fatalf("send %d: %v", len(out), err)
		}
		out = append(out, sendOutcome{p.Latency(), p.Blocked, p.Hops, p.Lost(), n.Retries()})
		send()
	}
	send = func() {
		if len(out) == len(steps) {
			return
		}
		st := steps[len(out)]
		if st.before != nil {
			st.before()
		}
		if reuse {
			n.SendInto(&rec, st.src, st.dst, done, done)
		} else {
			n.SendWithLoss(st.src, st.dst, done, done)
		}
	}
	eng.Schedule(10, send)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConservation(true); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(steps) {
		t.Fatalf("chain stopped after %d of %d sends", len(out), len(steps))
	}
	return out
}

// TestSendIntoReusesRecordFromCallbacks re-sends one packet record
// from inside its own delivery and loss callbacks through every fault
// path — patience timeout, bounce, backoff retry, loss at retry and
// loss at injection — and requires each send to report exactly what a
// fresh SendWithLoss record reports on the same chain.
func TestSendIntoReusesRecordFromCallbacks(t *testing.T) {
	fresh := reuseChain(t, false)
	reused := reuseChain(t, true)
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Errorf("send %d: reused record %+v, fresh record %+v", i, reused[i], fresh[i])
		}
	}
	// The chain has teeth: each step took the path it was built for.
	want := []struct {
		lost  bool
		retry bool // a backoff retry was scheduled during the send
	}{{false, true}, {false, true}, {true, true}, {true, false}}
	prev := uint64(0)
	for i, o := range fresh {
		if o.lost != want[i].lost || (o.retries > prev) != want[i].retry {
			t.Errorf("send %d: lost %v, retries %d -> %d; want lost %v, retried %v",
				i, o.lost, prev, o.retries, want[i].lost, want[i].retry)
		}
		prev = o.retries
	}
	if fresh[0].blocked == 0 {
		t.Error("send 0 never queued: no patience timeout")
	}
}
