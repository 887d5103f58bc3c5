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
// closure-free ScheduleEvent give 0 allocs per schedule+fire cycle. This
// is the steady-state guard the CI bench-smoke job pins.
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
// must report 0 allocs/op (the CI bench-smoke job fails otherwise).
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

// BenchmarkHoldTies is the hold model shaped like the paper traffic:
// about 160 events pending, each fired event scheduling its successor a
// whole number of cycles on, from three fractional base times. Most
// schedules land on a time that already has a pending event, so this
// is the same-time chain path; the warm loop must report 0 allocs/op.
// tools/bench runs the same model as des/event_ties.
func BenchmarkHoldTies(b *testing.B) {
	e := NewEngine()
	rng := stats.NewStream(5)
	offsets := make([]Time, 1024)
	for i := range offsets {
		offsets[i] = Time(1 + rng.Intn(8))
	}
	k := 0
	var hold EventFunc
	hold = func(any) {
		e.ScheduleEvent(offsets[k&1023], hold, nil)
		k++
	}
	bases := [...]Time{0.25, 0.375, 0.8125}
	for i := 0; i < 160; i++ {
		e.AtEvent(bases[i%3]+offsets[i], hold, nil)
	}
	for i := 0; i < 1024; i++ { // warm the pool and the cache
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
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

// diffKids is the fixed reaction table of the differential: the
// delays at which event id's handler schedules new events when it
// fires. A zero delay schedules at the firing time itself.
func diffKids(seed uint64, n int) [][]Time {
	kids := make([][]Time, n)
	rng := rand.New(rand.NewSource(int64(seed)))
	for id := range kids {
		switch rng.Intn(8) {
		case 0:
			kids[id] = []Time{0}
		case 1:
			kids[id] = []Time{Time(rng.Intn(9))}
		case 2:
			kids[id] = []Time{0, Time(rng.Intn(9))}
		}
	}
	return kids
}

// engineSide and refSide run one queue each under the differential.
// Events are named by id, handed out in schedule order on each side,
// so the ids agree as long as the firing orders do.
type engineSide struct {
	e     *Engine
	hs    []Handle
	fired []int
	fire  EventFunc
}

func newEngineSide(kids [][]Time) *engineSide {
	s := &engineSide{e: NewEngine()}
	s.fire = func(a any) {
		id := a.(int)
		s.fired = append(s.fired, id)
		if id < len(kids) {
			for _, d := range kids[id] {
				s.at(s.e.Now() + d)
			}
		}
	}
	return s
}

func (s *engineSide) at(t Time) { s.hs = append(s.hs, s.e.AtEvent(t, s.fire, len(s.hs))) }

type refSide struct {
	e     *refEngine
	hs    []refHandle
	fired []int
	fire  EventFunc
}

func newRefSide(kids [][]Time) *refSide {
	s := &refSide{e: &refEngine{}}
	s.fire = func(a any) {
		id := a.(int)
		s.fired = append(s.fired, id)
		if id < len(kids) {
			for _, d := range kids[id] {
				s.at(s.e.Now() + d)
			}
		}
	}
	return s
}

func (s *refSide) at(t Time) { s.hs = append(s.hs, s.e.AtEvent(t, s.fire, len(s.hs))) }

// diffCoverage counts the chain cases a differential run reached.
type diffCoverage struct {
	cancelHead, cancelLoneHead, cancelMiddle, cancelTail, cancelCached int
	sharedTime                                                         int
}

// runDifferential decodes ops into schedules, cancels, steps and
// RunUntil calls, applies each to the engine and to the reference
// queue, and after every one compares the firing order, Now, Pending
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
	a, r := newEngineSide(kids), newRefSide(kids)
	// Non-dyadic fractional bases, so equal times come only from equal
	// expressions, as in the network's hop and drain arithmetic.
	bases := [...]Time{0.3, 1.7, 2.45}
	at := func(tm Time) { a.at(tm); r.at(tm) }
	last := Time(-1) // time of the newest top-level schedule
	for step := 0; len(ops) > 0; step++ {
		now := a.e.Now()
		switch op := next(); op % 8 {
		case 0, 1, 2: // a base time plus a whole offset 0-8, not before now
			p := next()
			base, k := bases[p%3], Time(p/3%9)
			m := math.Ceil(now - base)
			tm := base + (m + k)
			if tm < now {
				tm = base + (m + k + 1)
			}
			at(tm)
			last = tm
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
			if op%8 == 5 {
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
				if a.e.tails[cacheSlot(ev.time)].ev == ev {
					cov.cancelCached++
				}
			}
			if got, want := a.e.Cancel(a.hs[id]), r.e.Cancel(r.hs[id]); got != want {
				t.Fatalf("op %d: Cancel(%d) = %v, reference %v", step, id, got, want)
			}
		case 7: // fire one event, or run to a time between the whole offsets
			if p := next(); p%4 == 0 {
				until := now + Time(p%9) + 0.5
				if err := a.e.RunUntil(until); err != nil {
					t.Fatal(err)
				}
				r.e.RunUntil(until)
			} else if got, want := a.e.Step(), r.e.Step(); got != want {
				t.Fatalf("op %d: Step() = %v, reference %v", step, got, want)
			}
		}
		compareSides(t, step, a, r)
		if cov != nil {
			for i := range a.e.heap {
				for j := i + 1; j < len(a.e.heap); j++ {
					if a.e.heap[i].time == a.e.heap[j].time {
						cov.sharedTime++
					}
				}
			}
		}
	}
	if err := a.e.Run(); err != nil {
		t.Fatal(err)
	}
	r.e.RunUntil(math.Inf(1))
	compareSides(t, -1, a, r)
}

func compareSides(t testing.TB, step int, a *engineSide, r *refSide) {
	t.Helper()
	if len(a.fired) != len(r.fired) {
		t.Fatalf("op %d: fired %d events, reference %d", step, len(a.fired), len(r.fired))
	}
	for i := range a.fired {
		if a.fired[i] != r.fired[i] {
			t.Fatalf("op %d: firing %d is event %d, reference %d", step, i, a.fired[i], r.fired[i])
		}
	}
	if math.Float64bits(a.e.Now()) != math.Float64bits(r.e.Now()) {
		t.Fatalf("op %d: Now() = %v, reference %v", step, a.e.Now(), r.e.Now())
	}
	if a.e.Pending() != r.e.Pending() {
		t.Fatalf("op %d: Pending() = %d, reference %d", step, a.e.Pending(), r.e.Pending())
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
// middle, a tail and the cached event, and two chains of one time.
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
		cov.cancelTail == 0 || cov.cancelCached == 0 || cov.sharedTime == 0 {
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
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runDifferential(t, ops, nil)
	})
}

// The reference queue: the engine's original binary heap of event
// records on (time, seq). Its schedule, cancel, step and heap code is
// kept unchanged but for the names; the event limit, the re-entry
// guard and the Schedule/At wrappers, which the differential does not
// drive, are left out. TestChainedQueueMatchesReference and FuzzEngine
// hold the chained queue to it.

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

type refEngine struct {
	now  Time
	seq  uint64
	heap []*refEvent
	free *refEvent // recycled event records
}

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) Pending() int { return len(e.heap) }

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
	e.push(ev)
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
	e.recycle(h.ev)
	return true
}

func (e *refEngine) Step() bool {
	ev := e.pop()
	if ev == nil {
		return false
	}
	e.now = ev.time
	if ev.efn != nil {
		ev.efn(ev.arg)
	} else {
		ev.fn()
	}
	e.recycle(ev)
	return true
}

func (e *refEngine) RunUntil(t Time) {
	for len(e.heap) > 0 && e.heap[0].time <= t {
		e.Step()
	}
	if !math.IsInf(t, 1) && t > e.now {
		e.now = t
	}
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
