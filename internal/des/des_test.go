package des

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunAdvancesClock(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(5, func() { fired = append(fired, e.Now()) })
	e.Schedule(2, func() { fired = append(fired, e.Now()) })
	e.Schedule(9, func() { fired = append(fired, e.Now()) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{2, 5, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if e.Now() != 9 {
		t.Fatalf("Now() = %v, want 9", e.Now())
	}
}

func TestFIFOTieBreakAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(1, func() {
		fired = append(fired, e.Now())
		e.Schedule(3, func() { fired = append(fired, e.Now()) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 4 {
		t.Fatalf("fired = %v, want [1 4]", fired)
	}
}

func TestRunUntilStopsAndAdvances(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++ })
	e.Schedule(10, func() { count++ })
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %v, want 5", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 || e.Now() != 10 {
		t.Fatalf("count = %d Now = %v, want 2, 10", count, e.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5, func() { fired = true })
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event at the RunUntil boundary did not fire")
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.Schedule(3, func() { fired = true })
	if !e.Cancel(h) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.Cancel(h) {
		t.Fatal("second Cancel returned true")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfHeapKeepsOrdering(t *testing.T) {
	e := NewEngine()
	var fired []Time
	var handles []Handle
	times := []Time{8, 3, 9, 1, 7, 2, 6, 4, 5}
	for _, tm := range times {
		tm := tm
		handles = append(handles, e.Schedule(tm, func() { fired = append(fired, tm) }))
	}
	// Cancel times 9, 1, 6.
	e.Cancel(handles[2])
	e.Cancel(handles[3])
	e.Cancel(handles[6])
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{2, 3, 4, 5, 7, 8}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestHandleInvalidAfterFiring(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(1, func() {})
	if !h.Valid() {
		t.Fatal("handle invalid before firing")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if h.Valid() {
		t.Fatal("handle still valid after firing")
	}
	if e.Cancel(h) {
		t.Fatal("Cancel of fired event returned true")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestAtBeforeNowPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil event function did not panic")
		}
	}()
	NewEngine().Schedule(1, nil)
}

func TestEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(10)
	var tick func()
	tick = func() { e.Schedule(1, tick) }
	e.Schedule(1, tick)
	if err := e.Run(); err != ErrHorizon {
		t.Fatalf("Run() = %v, want ErrHorizon", err)
	}
	if e.Executed() != 10 {
		t.Fatalf("Executed() = %d, want 10", e.Executed())
	}
}

func TestEventLimitZeroMeansUnbounded(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(3)
	e.SetEventLimit(0)
	for i := 0; i < 100; i++ {
		e.Schedule(Time(i), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run() = %v, want nil", err)
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 17; i++ {
		e.Schedule(Time(i), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Executed() != 17 {
		t.Fatalf("Executed() = %d, want 17", e.Executed())
	}
}

// Property: for any set of delays, events fire in nondecreasing time
// order and the engine clock matches each event's scheduled time.
func TestPropertyOrderedFiring(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var expect []Time
		var got []Time
		for _, r := range raw {
			d := Time(r % 1000)
			expect = append(expect, d)
			d2 := d
			e.Schedule(d2, func() {
				if e.Now() != d2 {
					t.Errorf("clock %v at event scheduled for %v", e.Now(), d2)
				}
				got = append(got, d2)
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		sort.Float64s(expect)
		if len(got) != len(expect) {
			return false
		}
		for i := range got {
			if got[i] != expect[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleaving of schedules and cancels never corrupts
// the heap; surviving events fire in order.
func TestPropertyScheduleCancelStress(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		var live []Handle
		var last Time = -1
		ok := true
		for op := 0; op < 500; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				e.Cancel(live[i])
				live = append(live[:i], live[i+1:]...)
				continue
			}
			d := Time(rng.Intn(10000))
			live = append(live, e.Schedule(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			}))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: out-of-order firing", trial)
		}
		for _, h := range live {
			if h.Valid() {
				t.Fatalf("trial %d: handle valid after Run drained heap", trial)
			}
		}
	}
}

func TestRunUntilInfinityDrains(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(1, func() { n++ })
	if err := e.RunUntil(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatal("event did not fire")
	}
	if math.IsInf(e.Now(), 1) {
		t.Fatal("clock advanced to infinity")
	}
}

func TestScheduleEventPassesArg(t *testing.T) {
	e := NewEngine()
	type payload struct{ hits int }
	p := &payload{}
	e.ScheduleEvent(3, func(a any) { a.(*payload).hits++ }, p)
	e.AtEvent(5, func(a any) { a.(*payload).hits += 10 }, p)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if p.hits != 11 {
		t.Fatalf("hits = %d, want 11", p.hits)
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %v, want 5", e.Now())
	}
}

func TestScheduleEventNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleEvent(nil fn) did not panic")
		}
	}()
	NewEngine().ScheduleEvent(1, nil, 7)
}

func TestScheduleEventNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleEvent(-1) did not panic")
		}
	}()
	NewEngine().ScheduleEvent(-1, func(any) {}, nil)
}

// Closure and argument events interleave on one clock with the shared
// FIFO tie-break.
func TestScheduleEventInterleavesWithSchedule(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(2, func() { order = append(order, 0) })
	e.ScheduleEvent(2, func(a any) { order = append(order, a.(int)) }, 1)
	e.Schedule(2, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2]", order)
	}
}

// A handle to a fired event must stay dead even after its pooled record
// is reused by a later schedule: Cancel through the stale handle must not
// cancel the new event.
func TestStaleHandleCannotCancelReusedRecord(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(1, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	fired := false
	e.Schedule(1, func() { fired = true }) // reuses the pooled record
	if h.Valid() {
		t.Fatal("stale handle valid after pool reuse")
	}
	if e.Cancel(h) {
		t.Fatal("stale handle cancelled a reused record")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("reused-record event did not fire")
	}
}

// Cancelled records go back to the pool too and must be reusable.
func TestCancelRecyclesRecord(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(5, func() { t.Fatal("cancelled event fired") })
	if !e.Cancel(h) {
		t.Fatal("Cancel failed")
	}
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(1, func() { n++ })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("fired %d events, want 10", n)
	}
}

// The event core must not allocate once warm: pooled records plus
// closure-free ScheduleEvent give 0 allocs per schedule+fire cycle.
func TestZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	fn := func(any) {}
	// Warm-up: grow the heap slice and the record pool to their
	// high-water marks.
	for i := 0; i < 64; i++ {
		e.ScheduleEvent(Time(i%7), fn, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.ScheduleEvent(Time(i%7), fn, nil)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state allocs per 64-event batch = %v, want 0", avg)
	}
}

// Pointer arguments must not box: the interface word carries the pointer
// directly, so the whole ScheduleEvent path stays allocation-free.
func TestZeroAllocPointerArg(t *testing.T) {
	e := NewEngine()
	type state struct{ n int }
	st := &state{}
	fn := func(a any) { a.(*state).n++ }
	for i := 0; i < 16; i++ {
		e.ScheduleEvent(1, fn, st)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			e.ScheduleEvent(1, fn, st)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state allocs per 16-event batch = %v, want 0", avg)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventSteadyState measures one warm schedule+fire cycle on a
// long-lived engine: the pooled record and closure-free argument path
// must report 0 allocs/op, as TestZeroAllocSteadyState holds it.
func BenchmarkEventSteadyState(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	for i := 0; i < 64; i++ { // warm the pool
		e.ScheduleEvent(1, fn, nil)
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleEvent(1, fn, nil)
		e.Step()
	}
}

// holdModel builds the hold model shaped like the paper traffic: 160
// events pending, each fired event rescheduling itself 1-8 whole
// cycles on, from three fractional base times. Most schedules land on
// a time that already has a pending event, so this is the same-time
// chain path. react, when non-nil, runs first in each fired event,
// with the count k of events fired so far and an offset of 1-8 cycles
// drawn apart from the rescheduling ones. The engine comes back warm,
// 4096 events in, with its pool and tail cache grown; one Step fires
// one event.
func holdModel(react func(e *Engine, k int, offset Time)) *Engine {
	e := NewEngine()
	rng := stats.NewStream(5)
	offsets := make([]Time, 1024)
	for i := range offsets {
		offsets[i] = Time(1 + rng.Intn(8))
	}
	k := 0
	var hold EventFunc
	hold = func(any) {
		if react != nil {
			react(e, k, offsets[(k+512)&1023])
		}
		e.ScheduleEvent(offsets[k&1023], hold, nil)
		k++
	}
	bases := [...]Time{0.25, 0.375, 0.8125}
	for i := 0; i < 160; i++ {
		e.AtEvent(bases[i%3]+offsets[i], hold, nil)
	}
	for i := 0; i < 4096; i++ {
		e.Step()
	}
	return e
}

// reserveMaterialize is the network's lazy tail drain as a hold-model
// reaction: each fired event reserves a position 1-8 cycles on and,
// unless it has passed, materializes the one it reserved 64 events
// earlier into the same-time chains.
func reserveMaterialize() func(e *Engine, k int, offset Time) {
	var ring [64]struct {
		t   Time
		seq uint64
	}
	drain := func(any) {}
	return func(e *Engine, k int, offset Time) {
		r := &ring[k&63]
		if !e.Passed(r.t, r.seq) {
			e.AtEventSeq(r.t, r.seq, drain, nil)
		}
		r.t = e.Now() + offset
		r.seq = e.Reserve(r.t)
	}
}

// BenchmarkHoldTies times one Step of the warm hold model; it must
// report 0 allocs/op.
func BenchmarkHoldTies(b *testing.B) {
	e := holdModel(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// TestHoldModelAllocatesNothing holds one Step of the warm hold model
// to fewer than one heap allocation: plain (event_ties), and with each
// event reserving a position and materializing an earlier one into the
// chains (reserve_materialize). Each row is a setup and the op it
// returns.
func TestHoldModelAllocatesNothing(t *testing.T) {
	for _, row := range []struct {
		name  string
		setup func() (op func())
	}{
		{"event_ties", func() func() {
			e := holdModel(nil)
			return func() { e.Step() }
		}},
		{"reserve_materialize", func() func() {
			e := holdModel(reserveMaterialize())
			return func() { e.Step() }
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(1000, row.setup()); avg != 0 {
				t.Errorf("%v allocations per Step, want 0", avg)
			}
		})
	}
}

// TestScheduleNaNPanics: a NaN time would compare false against every
// key and break the heap order silently, so every entry point rejects
// it the way Schedule rejects a negative delay.
func TestScheduleNaNPanics(t *testing.T) {
	nan := math.NaN()
	for name, schedule := range map[string]func(e *Engine){
		"Schedule":      func(e *Engine) { e.Schedule(nan, func() {}) },
		"At":            func(e *Engine) { e.At(nan, func() {}) },
		"ScheduleEvent": func(e *Engine) { e.ScheduleEvent(nan, func(any) {}, nil) },
		"AtEvent":       func(e *Engine) { e.AtEvent(nan, func(any) {}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(NaN) did not panic", name)
				}
			}()
			schedule(NewEngine())
		}()
	}
}

// slotPartner returns a later whole offset of t that hashes into t's
// cache slot, so scheduling at it evicts t's chain from the cache.
func slotPartner(t Time) Time {
	for m := 1; ; m++ {
		if u := t + Time(m); u != t && cacheSlot(u) == cacheSlot(t) {
			return u
		}
	}
}

// A cache collision evicts a time's chain; the next event at that time
// starts a second chain, which must fire after the whole first one.
func TestCacheCollisionStartsLaterChain(t *testing.T) {
	e := NewEngine()
	t0 := Time(2.5)
	t1 := slotPartner(t0)
	var order []string
	for _, s := range []struct {
		name string
		at   Time
	}{{"a", t0}, {"b", t0}, {"x", t1}, {"c", t0}, {"d", t0}} {
		name := s.name
		e.At(s.at, func() { order = append(order, name) })
	}
	chains := map[Time]int{}
	for _, c := range e.heap {
		chains[c.time]++
	}
	if len(e.heap) != 3 || chains[t0] != 2 || chains[t1] != 1 {
		t.Fatalf("want two chains at %v and one at %v, heap %v", t0, t1, e.heap)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abcdx" {
		t.Fatalf("order %q, want abcdx", got)
	}
}

// reaction is what event id's handler does when it fires. With
// materialize set it first walks the reservations at the firing time
// that are not materialized, asks Passed of each, and materializes the
// first that has not passed: a network request that finds a tail drain
// pending at exactly its own time. Then it schedules new events at the
// delays; a zero delay schedules at the firing time itself.
type reaction struct {
	materialize bool
	delays      []Time
}

// diffKids is the fixed reaction table of the differential.
func diffKids(seed uint64, n int) []reaction {
	kids := make([]reaction, n)
	rng := rand.New(rand.NewSource(int64(seed)))
	for id := range kids {
		switch rng.Intn(8) {
		case 0:
			kids[id].delays = []Time{0}
		case 1:
			kids[id].delays = []Time{Time(rng.Intn(9))}
		case 2:
			kids[id].delays = []Time{0, Time(rng.Intn(9))}
		}
		kids[id].materialize = rng.Intn(3) == 0
	}
	return kids
}

// queue is what the differential drives: the engine or the reference.
type queue[H interface{ Valid() bool }] interface {
	Now() Time
	Pending() int
	AtEvent(t Time, fn EventFunc, arg any) H
	Reserve(t Time) uint64
	Passed(t Time, seq uint64) bool
	AtEventSeq(t Time, seq uint64, fn EventFunc, arg any) H
	Cancel(h H) bool
	Step() bool
}

// reservation is a position a side reserved; done once materialized.
type reservation struct {
	t    Time
	seq  uint64
	done bool
}

// side runs one queue under the differential. Events are named by id,
// handed out in schedule order on each side, so the ids agree as long
// as the firing orders do. passes logs the answers of the handlers'
// Passed calls. eng and cov are set on the engine's side only, which
// counts the cases reached.
type side[H interface{ Valid() bool }] struct {
	q      queue[H]
	kids   []reaction
	hs     []H
	rs     []reservation
	fired  []int
	passes []bool
	fire   EventFunc
	eng    *Engine
	cov    *diffCoverage
}

func newSide[H interface{ Valid() bool }](q queue[H], kids []reaction) *side[H] {
	s := &side[H]{q: q, kids: kids}
	s.fire = func(a any) {
		id := a.(int)
		s.fired = append(s.fired, id)
		if id >= len(kids) {
			return
		}
		now := s.q.Now()
		if kids[id].materialize {
			for i := range s.rs {
				if r := s.rs[i]; !r.done && r.t == now {
					passed := s.passed(i)
					s.passes = append(s.passes, passed)
					if !passed {
						s.materialize(i)
						break
					}
				}
			}
		}
		for _, d := range kids[id].delays {
			s.at(now + d)
		}
	}
	return s
}

func (s *side[H]) at(t Time) { s.hs = append(s.hs, s.q.AtEvent(t, s.fire, len(s.hs))) }

func (s *side[H]) reserve(t Time) uint64 {
	seq := s.q.Reserve(t)
	s.rs = append(s.rs, reservation{t: t, seq: seq})
	return seq
}

// passed asks Passed of reservation i, counting the equal-time cases.
func (s *side[H]) passed(i int) bool {
	r := s.rs[i]
	p := s.q.Passed(r.t, r.seq)
	if s.cov != nil && r.t == s.q.Now() {
		if p {
			s.cov.passedAtNow++
		} else {
			s.cov.aheadAtNow++
		}
	}
	return p
}

// materialize schedules an event at reservation i, counting on the
// engine's side where it went: a new chain, before a chain's current
// head, into a chain's middle, or at its tail (and whether the tail
// cache held the old tail).
func (s *side[H]) materialize(i int) {
	r := &s.rs[i]
	h := s.q.AtEventSeq(r.t, r.seq, s.fire, len(s.hs))
	s.hs = append(s.hs, h)
	r.done = true
	if s.cov == nil {
		return
	}
	ev := any(h).(Handle).ev
	switch {
	case ev.index >= 0 && s.eng.heap[ev.index].seq == ev.seq:
		s.cov.newChain++
	case ev.index >= 0:
		s.cov.beforeHead++
	case ev.next != nil:
		s.cov.middle++
	default:
		s.cov.tail++
		if c := s.eng.tails[cacheSlot(ev.time)].ev; c == ev || c == ev.prev {
			s.cov.cachedTail++
		}
	}
}

// diffCoverage counts the chain cases a differential run reached:
// cancels of each chain position, two chains of one time, the four
// places a materialized event can land, and Passed at the current time
// answering either way.
type diffCoverage struct {
	cancelHead, cancelLoneHead, cancelMiddle, cancelTail, cancelCached int
	sharedTime                                                         int
	newChain, beforeHead, middle, tail, cachedTail                     int
	passedAtNow, aheadAtNow                                            int
}

// runDifferential decodes ops into schedules, reservations,
// materializations, Passed queries, cancels, steps and RunUntil calls,
// applies each to the engine and to the reference queue, and after
// every one compares the firing order, Now, Pending, the Passed answers
// and the validity of every handle issued. cov, when non-nil, counts
// the chain cases reached.
func runDifferential(t testing.TB, ops []byte, cov *diffCoverage) {
	t.Helper()
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	kids := diffKids(uint64(next())<<8|uint64(next()), 2*len(ops)+16)
	e, ref := NewEngine(), &refEngine{reserved: map[uint64]*refEvent{}}
	a, r := newSide[Handle](e, kids), newSide[refHandle](ref, kids)
	a.eng, a.cov = e, cov
	// Non-dyadic fractional bases, so equal times come only from equal
	// expressions, as in the network's hop and drain arithmetic.
	bases := [...]Time{0.3, 1.7, 2.45}
	lattice := func(p byte, now Time) Time { // a base time plus a whole offset 0-8, not before now
		base, k := bases[p%3], Time(p/3%9)
		m := math.Ceil(now - base)
		tm := base + (m + k)
		if tm < now {
			tm = base + (m + k + 1)
		}
		return tm
	}
	at := func(tm Time) { a.at(tm); r.at(tm) }
	// pick returns one of the 64 newest reservations not materialized,
	// or -1.
	pick := func(p byte) int {
		n := len(a.rs)
		if n == 0 {
			return -1
		}
		if i := n - 1 - int(p)%min(n, 64); !a.rs[i].done {
			return i
		}
		return -1
	}
	last := Time(-1) // time of the newest top-level schedule
	for step := 0; len(ops) > 0; step++ {
		now := e.Now()
		switch op := next(); op % 11 {
		case 0, 1, 2: // a lattice time
			last = lattice(next(), now)
			at(last)
		case 3: // now plus a whole offset 0-8, zero included
			last = now + Time(next()%9)
			at(last)
		case 4: // evict the newest time's chain, then join that time again
			if last >= now {
				at(slotPartner(last))
				at(last)
			}
		case 5, 6: // cancel one of the 64 newest events; 6: the newest, the one the cache holds
			n := len(a.hs)
			if n == 0 {
				break
			}
			id := n - 1
			if op%11 == 5 {
				id -= int(next()) % min(n, 64)
			}
			if cov != nil && a.hs[id].Valid() {
				ev := a.hs[id].ev
				switch {
				case ev.index == chained && ev.next != nil:
					cov.cancelMiddle++
				case ev.index == chained:
					cov.cancelTail++
				case ev.next != nil:
					cov.cancelHead++
				default:
					cov.cancelLoneHead++
				}
				if e.tails[cacheSlot(ev.time)].ev == ev {
					cov.cancelCached++
				}
			}
			if got, want := e.Cancel(a.hs[id]), ref.Cancel(r.hs[id]); got != want {
				t.Fatalf("op %d: Cancel(%d) = %v, reference %v", step, id, got, want)
			}
		case 7: // fire one event, or run to a time between the whole offsets
			if p := next(); p%4 == 0 {
				until := now + Time(p%9) + 0.5
				if err := e.RunUntil(until); err != nil {
					t.Fatal(err)
				}
				ref.RunUntil(until)
			} else if got, want := e.Step(), ref.Step(); got != want {
				t.Fatalf("op %d: Step() = %v, reference %v", step, got, want)
			}
		case 8: // reserve a position on the lattice or a whole offset 1-8 after now
			p := next()
			tm := now + 1 + Time(p/2%8)
			if p%2 == 1 {
				if tm = lattice(p/2, now); tm == now {
					tm++
				}
			}
			if got, want := a.reserve(tm), r.reserve(tm); got != want {
				t.Fatalf("op %d: Reserve(%v) = %d, reference %d", step, tm, got, want)
			}
		case 9, 10: // 9: materialize a reservation unless it has passed; 10: only ask
			i := pick(next())
			if i < 0 {
				break
			}
			got, want := a.passed(i), r.passed(i)
			if got != want {
				res := a.rs[i]
				t.Fatalf("op %d: Passed(%v, %d) = %v at now %v, reference %v", step, res.t, res.seq, got, now, want)
			}
			if op%11 == 9 && !got {
				a.materialize(i)
				r.materialize(i)
			}
		}
		compareSides(t, step, a, r)
		if cov != nil {
			for i := range e.heap {
				for j := i + 1; j < len(e.heap); j++ {
					if e.heap[i].time == e.heap[j].time {
						cov.sharedTime++
					}
				}
			}
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ref.RunUntil(math.Inf(1))
	compareSides(t, -1, a, r)
}

func compareSides(t testing.TB, step int, a *side[Handle], r *side[refHandle]) {
	t.Helper()
	if len(a.fired) != len(r.fired) {
		t.Fatalf("op %d: fired %d events, reference %d", step, len(a.fired), len(r.fired))
	}
	for i := range a.fired {
		if a.fired[i] != r.fired[i] {
			t.Fatalf("op %d: firing %d is event %d, reference %d", step, i, a.fired[i], r.fired[i])
		}
	}
	if math.Float64bits(a.q.Now()) != math.Float64bits(r.q.Now()) {
		t.Fatalf("op %d: Now() = %v, reference %v", step, a.q.Now(), r.q.Now())
	}
	if a.q.Pending() != r.q.Pending() {
		t.Fatalf("op %d: Pending() = %d, reference %d", step, a.q.Pending(), r.q.Pending())
	}
	if len(a.passes) != len(r.passes) {
		t.Fatalf("op %d: handlers asked Passed %d times, reference %d", step, len(a.passes), len(r.passes))
	}
	for i := range a.passes {
		if a.passes[i] != r.passes[i] {
			t.Fatalf("op %d: handler Passed call %d = %v, reference %v", step, i, a.passes[i], r.passes[i])
		}
	}
	if len(a.hs) != len(r.hs) {
		t.Fatalf("op %d: %d events scheduled, reference %d", step, len(a.hs), len(r.hs))
	}
	for id := range a.hs {
		if a.hs[id].Valid() != r.hs[id].Valid() {
			t.Fatalf("op %d: event %d Valid() = %v, reference %v", step, id, a.hs[id].Valid(), r.hs[id].Valid())
		}
	}
}

// TestChainedQueueMatchesReference drives random tie-heavy operation
// streams through the engine and the reference heap, and checks that
// they reached every chain case: cancels of a head, a lone head, a
// middle, a tail and the cached event; two chains of one time; a
// materialized event starting a chain, going before a chain's current
// head, into a chain's middle, at a tail and at a cached tail; and
// Passed at the current time answering true and false.
func TestChainedQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cov diffCoverage
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		ops := make([]byte, 2+rng.Intn(600))
		rng.Read(ops)
		runDifferential(t, ops, &cov)
	}
	if cov.cancelHead == 0 || cov.cancelLoneHead == 0 || cov.cancelMiddle == 0 ||
		cov.cancelTail == 0 || cov.cancelCached == 0 || cov.sharedTime == 0 ||
		cov.newChain == 0 || cov.beforeHead == 0 || cov.middle == 0 || cov.tail == 0 ||
		cov.cachedTail == 0 || cov.passedAtNow == 0 || cov.aheadAtNow == 0 {
		t.Fatalf("differential missed a chain case: %+v", cov)
	}
	t.Logf("coverage %+v", cov)
}

// FuzzEngine is the differential as a fuzz target: any byte string is
// a valid operation stream.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{0, 1, 0, 9, 0, 9, 3, 0, 4, 7, 1, 6, 7, 1, 5, 2, 7, 0})
	f.Add([]byte{7, 7, 3, 0, 3, 0, 3, 0, 6, 5, 1, 7, 1, 4, 4, 7, 4, 7, 1, 7, 1})
	f.Add([]byte("chained events fire in schedule order"))
	// Reserve three positions at now+1, schedule one there, fire up to
	// it, then materialize the reservations at the same time.
	f.Add([]byte{0, 0, 8, 0, 8, 0, 3, 1, 8, 0, 7, 1, 9, 0, 9, 1, 9, 2, 7, 1, 7, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runDifferential(t, ops, nil)
	})
}

// The reference queue: the engine's original binary heap of event
// records on (time, seq), with the event limit, the re-entry guard and
// the Schedule/At wrappers left out. A reservation is what the eager
// world has at that position: a placeholder record, without a
// function, pushed on the heap at once. Materializing fills it in, and
// a placeholder the clock reaches first is popped, which is what
// passing means. TestChainedQueueMatchesReference and FuzzEngine hold
// the chained queue to it.

type refHandle struct {
	ev  *refEvent
	gen uint64
}

func (h refHandle) Valid() bool { return h.ev != nil && h.ev.gen == h.gen && h.ev.index >= 0 }

type refEvent struct {
	time  Time
	seq   uint64 // tie-break: schedule order
	index int    // heap index, -1 once popped or cancelled
	gen   uint64 // bumped on recycle; Handle must match
	fn    func()
	efn   EventFunc
	arg   any
	next  *refEvent // free-list link while recycled
}

// placeholder reports whether ev is a reservation not materialized.
func (ev *refEvent) placeholder() bool { return ev.fn == nil && ev.efn == nil }

type refEngine struct {
	now      Time
	seq      uint64
	heap     []*refEvent
	pending  int                  // events, placeholders aside
	reserved map[uint64]*refEvent // placeholders by seq
	free     *refEvent            // recycled event records
}

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) Pending() int { return e.pending }

func (e *refEngine) AtEvent(t Time, fn EventFunc, arg any) refHandle {
	if fn == nil {
		panic("des: nil event function")
	}
	return e.schedule(t, nil, fn, arg)
}

func (e *refEngine) schedule(t Time, fn func(), efn EventFunc, arg any) refHandle {
	if t < e.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, e.now))
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &refEvent{}
	}
	ev.time, ev.seq = t, e.seq
	ev.fn, ev.efn, ev.arg = fn, efn, arg
	e.seq++
	e.pending++
	e.push(ev)
	return refHandle{ev: ev, gen: ev.gen}
}

func (e *refEngine) Reserve(t Time) uint64 {
	if !(t > e.now) {
		panic(fmt.Sprintf("des: reserve at %v, not after now %v", t, e.now))
	}
	ev := &refEvent{time: t, seq: e.seq}
	e.seq++
	e.push(ev)
	e.reserved[ev.seq] = ev
	return ev.seq
}

func (e *refEngine) Passed(t Time, seq uint64) bool { return e.reserved[seq].index < 0 }

func (e *refEngine) AtEventSeq(t Time, seq uint64, fn EventFunc, arg any) refHandle {
	ev := e.reserved[seq]
	if ev == nil || ev.index < 0 || ev.time != t || fn == nil {
		panic(fmt.Sprintf("des: AtEventSeq at (%v, %d): not a reserved position ahead of now %v", t, seq, e.now))
	}
	delete(e.reserved, seq)
	ev.efn, ev.arg = fn, arg
	e.pending++
	return refHandle{ev: ev, gen: ev.gen}
}

func (e *refEngine) recycle(ev *refEvent) {
	ev.fn, ev.efn, ev.arg = nil, nil, nil
	ev.gen++
	ev.next = e.free
	e.free = ev
}

func (e *refEngine) Cancel(h refHandle) bool {
	if !h.Valid() {
		return false
	}
	e.remove(h.ev)
	e.pending--
	e.recycle(h.ev)
	return true
}

// Step pops the placeholders ahead of the earliest event, then fires
// the event.
func (e *refEngine) Step() bool {
	if e.pending == 0 {
		return false
	}
	ev := e.pop()
	for ev.placeholder() {
		ev = e.pop()
	}
	e.pending--
	e.now = ev.time
	if ev.efn != nil {
		ev.efn(ev.arg)
	} else {
		ev.fn()
	}
	e.recycle(ev)
	return true
}

// RunUntil fires the events up to t. If that brings the clock to t or
// beyond (Run: to its last event), every placeholder up to the clock
// has passed too.
func (e *refEngine) RunUntil(t Time) {
	for e.pending > 0 && e.earliest() <= t {
		e.Step()
	}
	if !math.IsInf(t, 1) && t > e.now {
		e.now = t
	}
	if t >= e.now {
		for len(e.heap) > 0 && e.heap[0].time <= e.now {
			e.pop()
		}
	}
}

// earliest returns the time of the earliest event, placeholders aside.
func (e *refEngine) earliest() Time {
	t := math.Inf(1)
	for _, ev := range e.heap {
		if !ev.placeholder() && ev.time < t {
			t = ev.time
		}
	}
	return t
}

func (e *refEngine) less(i, j int) bool {
	a, b := e.heap[i], e.heap[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (e *refEngine) swap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.heap[i].index = i
	e.heap[j].index = j
}

func (e *refEngine) push(ev *refEvent) {
	ev.index = len(e.heap)
	e.heap = append(e.heap, ev)
	e.up(ev.index)
}

func (e *refEngine) pop() *refEvent {
	if len(e.heap) == 0 {
		return nil
	}
	ev := e.heap[0]
	e.removeAt(0)
	return ev
}

func (e *refEngine) remove(ev *refEvent) {
	if ev.index < 0 || ev.index >= len(e.heap) || e.heap[ev.index] != ev {
		return
	}
	e.removeAt(ev.index)
}

func (e *refEngine) removeAt(i int) {
	last := len(e.heap) - 1
	ev := e.heap[i]
	if i != last {
		e.swap(i, last)
	}
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if i != last && i < len(e.heap) {
		e.down(i)
		e.up(i)
	}
	ev.index = -1
}

func (e *refEngine) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *refEngine) down(i int) {
	n := len(e.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && e.less(right, left) {
			smallest = right
		}
		if !e.less(smallest, i) {
			return
		}
		e.swap(i, smallest)
		i = smallest
	}
}

// A record cached as the tail of its time that fires and is reused by
// AtEventSeq at that same time must leave the cache: it may land in a
// chain's middle, and a schedule joining after it would cut the chain.
func TestMaterializeReusingCachedRecord(t *testing.T) {
	e := NewEngine()
	var order []string
	note := func(a any) { order = append(order, a.(string)) }
	e.AtEvent(5, note, "a") // the cached tail at 5
	r1, r2, r3 := e.Reserve(5), e.Reserve(5), e.Reserve(5)
	x, y := e.AtEvent(9, note, "x"), e.AtEvent(9, note, "y")
	e.Step() // a fires; its record tops the free list
	e.Cancel(x)
	e.Cancel(y)                          // free list: y, x, a
	e.AtEventSeq(5, r1, note, "r1")      // y's record starts a chain
	e.AtEventSeq(5, r3, note, "r3")      // x's record, at its tail
	h := e.AtEventSeq(5, r2, note, "r2") // a's record, in its middle
	if h.ev.index != chained || h.ev.next == nil {
		t.Fatal("test premise broken: r2 did not land in a chain's middle")
	}
	e.AtEvent(5, note, "b")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "a r1 r2 r3 b" {
		t.Fatalf("order %q, want \"a r1 r2 r3 b\"", got)
	}
}

// Reserve takes only a time after now, and AtEventSeq only a reserved
// position that has not passed: either mistake would fire an event out
// of order, so both panic.
func TestReservationMisusePanics(t *testing.T) {
	for name, misuse := range map[string]func(e *Engine){
		"Reserve at now": func(e *Engine) { e.Reserve(e.Now()) },
		"Reserve at NaN": func(e *Engine) { e.Reserve(math.NaN()) },
		"AtEventSeq unreserved": func(e *Engine) {
			e.AtEventSeq(5, 0, func(any) {}, nil)
		},
		"AtEventSeq passed": func(e *Engine) {
			seq := e.Reserve(5)
			e.At(6, func() {})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			e.AtEventSeq(5, seq, func(any) {}, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			misuse(NewEngine())
		}()
	}
}
