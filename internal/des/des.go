// Package des provides a deterministic discrete-event simulation engine.
//
// The engine maintains a simulation clock and a pending-event set ordered
// by event time. Events scheduled for the same time fire in the order they
// were scheduled (FIFO tie-break), which makes simulations reproducible
// run to run. There is no canonical discrete-event framework in the Go
// ecosystem, so this package is built from scratch.
//
// Typical use:
//
//	eng := des.NewEngine()
//	eng.Schedule(10, func() { fmt.Println("t =", eng.Now()) })
//	eng.Run()
//
// # Same-time chains
//
// Simulated traffic puts many events on few distinct times: a wormhole
// network schedules its hops and tail drains at whole-cycle offsets
// from a handful of start times, so most schedules land on a time that
// already has a pending event. The pending set is therefore a binary
// min-heap of chains, not of events: behind each heap entry hangs a
// FIFO chain of the events scheduled for one time. An entry is keyed
// by the chain's time and the schedule sequence number (seq) of the
// chain's first event, stored inline, so comparisons never
// dereference an event record. A schedule finds the chain to join
// through a small direct-mapped cache from time to the most recently
// scheduled pending event at that time. The cache is lossy: a slot
// shared by two times remembers only the later one, and a miss pushes
// a new heap entry instead of joining the old chain. Firing a chain's
// head moves its successor into the head's heap slot, key unchanged,
// with no sift; Cancel unlinks the event from its chain.
//
// Two arguments keep the firing order exactly "by time, then schedule
// order", the order of a plain heap of events on (time, seq):
//
//   - Within a chain events fire FIFO, and a schedule only ever
//     appends the newest seq at a chain's tail, so chain order is seq
//     order (AtEventSeq inserts in seq order, see Reserved positions).
//   - A cache miss can only start a later chain. Its first seq exceeds
//     every seq already scheduled, in particular every event of the
//     chains at the same time that the cache lost, and no schedule
//     joins those chains again (a cached event is always the newest
//     pending event of its time, so only the newest chain can be
//     joined). Chains of one time therefore hold disjoint, increasing
//     seq ranges, and their first seqs, the heap keys, order them as
//     wholes.
//
// A miss costs only speed: one more heap entry.
//
// # Reserved positions
//
// A caller may know where an event would go in the firing order long
// before it knows whether the event is needed. The network's tail drain
// is the case: when a packet's header takes the ejection channel, the
// release of each trailing channel is due at a known time, but most of
// those channels see no request before then, and their release event
// would only clear a flag. Three operations let such a caller keep the
// position instead of the event:
//
//   - Reserve(t) uses up the seq an AtEvent call at t would take now,
//     and returns it; nothing is scheduled. t must be later than now.
//   - Passed(t, seq) reports whether an event at that position would
//     already have fired: t is before now, or t is now and the last
//     event fired had a seq of at least seq. A RunUntil that ends with
//     the clock at its bound, or Run at the time of its last event, has
//     fired everything at now, so every position at now has passed.
//   - AtEventSeq(t, seq, fn, arg) schedules at a reserved position that
//     has not passed. The event fires exactly where an AtEvent call at
//     the reservation would have fired.
//
// AtEventSeq links the event into the chain of t with the largest
// first seq below seq, in seq order; with no such chain it pushes a new
// heap entry keyed (t, seq). That keeps the arguments above:
//
//   - Every chain of t keyed above the chosen one is keyed above seq,
//     so the chosen chain's range still ends below the next chain's
//     key. A new chain holds seq alone, below every other chain of t.
//   - Inside the chain the event goes before the first event with a
//     larger seq. When the chain's earlier events have fired, that can
//     be its current head: the event becomes the head, and the chain
//     keeps its key, which is still below every seq in it.
//   - The tail cache must keep the newest pending event of each time.
//     An event inserted after the cached tail takes its place in the
//     cache, and a new chain is never cached, since a later chain of t
//     may exist. A record that was the cached tail at t, fired and was
//     reused at t by AtEventSeq leaves the cache.
//
// Finding the chain is a linear scan of the heap, which is rare and
// short on the paper workloads: on the 16x22 GABL/FCFS cell (load
// 0.003, seed 1, 100 jobs) 7,766 of 485,897 events are materialized,
// on a heap of at most 24 chains.
//
// Each record stores its seq, because an insert compares seqs inside a
// chain and Step keeps the fired seq for Passed. That makes a record 72
// bytes. An int32 index and a 32-bit generation would fit it in 64, but
// a 32-bit generation can wrap back to the value a stale Handle holds,
// so the record keeps the 64-bit one.
//
// The event core is allocation-free in steady state: fired and cancelled
// event records return to an intrusive free list and are reused by later
// schedules, so a long-running simulation stops allocating once the heap
// and pool reach their high-water marks. Schedule/At take a plain
// closure, whose capture the caller pays for; ScheduleEvent/AtEvent take
// a func(arg any) plus the argument, letting hot paths pass their state
// through the engine without allocating a closure per event (see the
// TestZeroAllocSteadyState guard).
//
// The engine is single-threaded by design: discrete-event simulations are
// causally ordered and parallelising the event loop would change results.
// Parallelism belongs one level up (independent replications), which the
// stats package provides.
package des

import (
	"errors"
	"fmt"
	"math"
)

// Time is the simulation clock type. One unit corresponds to one flit
// cycle in the network model, per the paper's time-unit convention.
type Time = float64

// EventFunc is an event handler that receives the argument it was
// scheduled with. Passing state this way instead of capturing it in a
// closure keeps the per-event cost allocation-free (a pointer-shaped
// argument fits in the interface word without boxing).
type EventFunc = func(arg any)

// ErrHorizon is returned by Run when the event limit is exhausted before
// the pending set drains, which almost always indicates a scheduling loop.
var ErrHorizon = errors.New("des: event limit exceeded")

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is invalid. Handles stay safe across event-record reuse: a
// recycled record bumps its generation, invalidating stale handles.
type Handle struct {
	ev  *event
	gen uint64
}

// Valid reports whether the handle refers to an event that has neither
// fired nor been cancelled.
func (h Handle) Valid() bool { return h.ev != nil && h.ev.gen == h.gen && h.ev.index != idle }

// Values of event.index other than a heap position.
const (
	idle    = -1 // fired, cancelled or on the free list
	chained = -2 // pending behind an earlier event at the same time
)

// event is one pooled pending-event record, 72 bytes. Records cycle
// heap or chain -> fired/cancelled -> free list; gen counts the cycles
// so stale Handles cannot touch a reused record.
type event struct {
	time  Time
	seq   uint64 // schedule position: orders the events of one time
	index int    // heap position of a chain head, else chained or idle
	gen   uint64 // bumped on recycle; Handle must match
	fn    EventFunc
	arg   any
	next  *event // chain successor while pending, free-list link while recycled
	prev  *event // chain predecessor, nil for a head
}

// entry is one heap slot: a chain's head and the chain's key, stored
// inline. seq is the seq of the chain's first event, which orders the
// chain against the other chains of its time.
type entry struct {
	time Time
	seq  uint64
	ev   *event
}

// callFunc fires a closure event: Schedule and At store the closure as
// the argument, so every record fires the same way.
func callFunc(fn any) { fn.(func())() }

// cacheBits sizes the same-time cache. The paper workloads keep about
// ten distinct times pending: on a 16x22 all-to-all run (GABL, FCFS,
// load 0.003) 64 slots miss 0.06% of the schedules that could join a
// chain, 32 slots 0.13% and 16 slots 10%.
const cacheBits = 6

// tailCache maps a time's slot to the most recently scheduled event
// at a time of that slot, the tail of that time's newest chain while it
// is pending. Each slot keeps the event's time beside it, so a miss on
// another time is told without loading the event record: when few
// events share a time, the cached record is usually stale and may no
// longer be in the CPU cache.
type tailCache [1 << cacheBits]struct {
	time Time
	ev   *event
}

// cacheSlot hashes a time into the cache (Fibonacci hashing of its
// bits). The sign bit is dropped so that -0 and +0, which compare
// equal, share a slot.
func cacheSlot(t Time) uint64 {
	return (math.Float64bits(t) << 1) * 0x9E3779B97F4A7C15 >> (64 - cacheBits)
}

// Engine is a discrete-event simulator instance. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now      Time
	seq      uint64     // events scheduled and positions reserved so far: the next seq
	lastSeq  uint64     // seq of the last event fired, or MaxUint64 once RunUntil fired all of now
	heap     []entry    // min-heap of chains on (time, first seq)
	tails    *tailCache // allocated on the first schedule
	pending  int
	free     *event // recycled event records
	executed uint64
	limit    uint64
	running  bool
}

// NewEngine returns an engine with the clock at zero and no event limit.
func NewEngine() *Engine {
	return &Engine{limit: math.MaxUint64}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return e.pending }

// SetEventLimit bounds the total number of events Run may execute.
// A limit of 0 removes the bound.
func (e *Engine) SetEventLimit(n uint64) {
	if n == 0 {
		e.limit = math.MaxUint64
		return
	}
	e.limit = n
}

// Schedule registers fn to fire delay time units from now. A negative
// or NaN delay panics: causality violations are programming errors, and
// failing fast keeps them near their cause.
func (e *Engine) Schedule(delay Time, fn func()) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// At registers fn to fire at absolute time t, which must not be NaN or
// precede the current clock.
func (e *Engine) At(t Time, fn func()) Handle {
	if fn == nil {
		panic("des: nil event function")
	}
	return e.schedule(t, callFunc, fn)
}

// ScheduleEvent registers fn(arg) to fire delay time units from now.
// Unlike Schedule, the event state travels as an explicit argument, so no
// closure is allocated: with a pooled record and a pointer-shaped arg the
// whole operation is allocation-free in steady state.
func (e *Engine) ScheduleEvent(delay Time, fn EventFunc, arg any) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	return e.AtEvent(e.now+delay, fn, arg)
}

// AtEvent registers fn(arg) to fire at absolute time t, which must not
// be NaN or precede the current clock. It is the closure-free form of At.
func (e *Engine) AtEvent(t Time, fn EventFunc, arg any) Handle {
	if fn == nil {
		panic("des: nil event function")
	}
	return e.schedule(t, fn, arg)
}

// schedule takes a record from the free list (or mints one), fills it
// and either chains it behind the newest pending event at time t or
// pushes it on the heap as the head of a new chain.
func (e *Engine) schedule(t Time, fn EventFunc, arg any) Handle {
	if !(t >= e.now) {
		if t != t {
			panic("des: schedule at NaN time")
		}
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, e.now))
	}
	if e.tails == nil {
		e.tails = new(tailCache)
	}
	// A cached event at time t that is still pending is the newest
	// event at t (any later one would have replaced it), so it is the
	// tail of t's newest chain. The record may have been recycled since
	// and rescheduled at another time, hence the second time check. It
	// is read before the new record is written, which may be the cached
	// one when that went idle.
	slot := &e.tails[cacheSlot(t)]
	tail := slot.ev
	join := slot.time == t && tail != nil && tail.time == t && tail.index != idle
	ev := e.take(t, e.seq, fn, arg)
	e.seq++
	if join {
		tail.next = ev
		ev.prev = tail
		ev.index = chained
	} else {
		e.push(ev)
	}
	slot.time, slot.ev = t, ev
	return Handle{ev: ev, gen: ev.gen}
}

// take fills a record from the free list, or a new one, as a pending
// event at position (t, seq).
func (e *Engine) take(t Time, seq uint64, fn EventFunc, arg any) *event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &event{}
	}
	ev.time, ev.seq, ev.fn, ev.arg = t, seq, fn, arg
	e.pending++
	return ev
}

// Reserve takes the seq an AtEvent call at time t would take now, so
// position (t, seq) in the firing order is kept for an event that may
// never be scheduled, and returns it. t must be later than now.
func (e *Engine) Reserve(t Time) uint64 {
	if !(t > e.now) {
		panic("des: reserve at a time not after now")
	}
	e.seq++
	return e.seq - 1
}

// Passed reports whether an event at position (t, seq) would already
// have fired: the engine has fired an event at that position or a
// later one, or RunUntil has run the clock through t (Run only through
// the time of its last event).
func (e *Engine) Passed(t Time, seq uint64) bool {
	return t < e.now || t == e.now && seq <= e.lastSeq
}

// AtEventSeq registers fn(arg) at the position (t, seq) that Reserve(t)
// returned seq for, which must not have passed: the event fires
// exactly where AtEvent(t, fn, arg) would have fired had it been
// called at the reservation.
func (e *Engine) AtEventSeq(t Time, seq uint64, fn EventFunc, arg any) Handle {
	if fn == nil {
		panic("des: nil event function")
	}
	if seq >= e.seq || !(t >= e.now) || e.Passed(t, seq) {
		panic(fmt.Sprintf("des: AtEventSeq at (%v, %d): not a reserved position ahead of now %v", t, seq, e.now))
	}
	if e.tails == nil {
		e.tails = new(tailCache)
	}
	ev := e.take(t, seq, fn, arg)
	slot := &e.tails[cacheSlot(t)]
	if slot.ev == ev {
		// The record was the cached tail at t before it fired; it is
		// not the tail of t's newest chain now.
		slot.ev = nil
	}
	// The chain of t with the largest first seq below seq, if any.
	c := -1
	for i := range e.heap {
		if x := &e.heap[i]; x.time == t && x.seq < seq && (c < 0 || x.seq > e.heap[c].seq) {
			c = i
		}
	}
	if c < 0 {
		e.push(ev)
		return Handle{ev: ev, gen: ev.gen}
	}
	head := e.heap[c].ev
	if head.seq > seq {
		// The chain's events before seq have fired: ev becomes the
		// head, under the chain's unchanged key.
		ev.next, head.prev = head, ev
		head.index = chained
		ev.index = c
		e.heap[c].ev = ev
		return Handle{ev: ev, gen: ev.gen}
	}
	p := head
	for p.next != nil && p.next.seq < seq {
		p = p.next
	}
	ev.prev, ev.next = p, p.next
	ev.index = chained
	if p.next != nil {
		p.next.prev = ev
	} else if slot.ev == p {
		slot.ev = ev
	}
	p.next = ev
	return Handle{ev: ev, gen: ev.gen}
}

// recycle returns a fired or cancelled record to the free list, dropping
// its payload (so the pool retains no caller state) and bumping the
// generation so outstanding Handles go stale.
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.arg = nil, nil
	ev.gen++
	ev.next = e.free
	e.free = ev
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if it already fired or was cancelled before).
func (e *Engine) Cancel(h Handle) bool {
	if !h.Valid() {
		return false
	}
	ev := h.ev
	switch {
	case ev.index == chained:
		ev.prev.next = ev.next
		if ev.next != nil {
			ev.next.prev = ev.prev
		}
	case ev.next != nil:
		e.promote(ev.index, ev.next)
	default:
		e.removeAt(ev.index)
	}
	// Only a chain's tail can be cached; its predecessor, if any, is
	// the new tail of the same chain.
	if ev.next == nil {
		if slot := &e.tails[cacheSlot(ev.time)]; slot.ev == ev {
			slot.ev = ev.prev
		}
	}
	ev.index, ev.next, ev.prev = idle, nil, nil
	e.pending--
	e.recycle(ev)
	return true
}

// Step fires the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was fired.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap[0].ev
	if ev.next != nil {
		e.promote(0, ev.next)
		ev.next = nil
	} else {
		e.removeAt(0)
	}
	ev.index = idle
	e.pending--
	e.now, e.lastSeq = ev.time, ev.seq
	e.executed++
	// Fire first, recycle after: the handler may consult its own Handle
	// (already invalid — index is idle) but must not see the record
	// reused under it mid-call.
	ev.fn(ev.arg)
	e.recycle(ev)
	return true
}

// Run fires events until the pending set is empty. It returns ErrHorizon
// if the event limit is reached first.
func (e *Engine) Run() error {
	return e.RunUntil(math.Inf(1))
}

// RunUntil fires events with timestamps <= t, then advances the clock to
// t if the simulation outlived it. Events scheduled during execution are
// honoured. It returns ErrHorizon if the event limit is reached.
func (e *Engine) RunUntil(t Time) error {
	if e.running {
		panic("des: Run re-entered from an event handler")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.heap) > 0 && e.heap[0].time <= t {
		if e.executed >= e.limit {
			return ErrHorizon
		}
		e.Step()
	}
	if !math.IsInf(t, 1) && t > e.now {
		e.now = t
	}
	if t >= e.now {
		// Every event at now has fired: every position at now passed.
		e.lastSeq = math.MaxUint64
	}
	return nil
}

// heap operations (min-heap of chains on (time, first seq)). The sifts
// move a hole instead of swapping, so each level writes one entry and
// one index.

func (a *entry) less(b *entry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push starts a new chain with ev, keyed by ev's position.
func (e *Engine) push(ev *event) {
	e.heap = append(e.heap, entry{})
	e.up(len(e.heap)-1, entry{time: ev.time, seq: ev.seq, ev: ev})
}

// promote makes succ, the successor of the chain head at heap position
// i, the head in that slot. The chain's key stays, so nothing moves.
func (e *Engine) promote(i int, succ *event) {
	succ.prev = nil
	succ.index = i
	e.heap[i].ev = succ
}

// removeAt deletes the entry at heap position i, refilling the hole
// with the last entry. The vacated slot is not cleared: its record
// stays reachable from the free list or the heap anyway.
func (e *Engine) removeAt(i int) {
	last := len(e.heap) - 1
	x := e.heap[last]
	e.heap = e.heap[:last]
	if i == last {
		return
	}
	if i > 0 && x.less(&e.heap[(i-1)/2]) {
		e.up(i, x)
	} else {
		e.down(i, x)
	}
}

// up places x at the hole i or above it.
func (e *Engine) up(i int, x entry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !x.less(&e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		e.heap[i].ev.index = i
		i = parent
	}
	e.heap[i] = x
	x.ev.index = i
}

// down places x at the hole i or below it.
func (e *Engine) down(i int, x entry) {
	n := len(e.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && e.heap[right].less(&e.heap[child]) {
			child = right
		}
		if !e.heap[child].less(&x) {
			break
		}
		e.heap[i] = e.heap[child]
		e.heap[i].ev.index = i
		i = child
	}
	e.heap[i] = x
	x.ev.index = i
}
