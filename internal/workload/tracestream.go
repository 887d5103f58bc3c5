package workload

// This file implements the chunked streaming trace reader: a native-
// format trace of any length — tens of millions of records, far larger
// than memory — is windowed through one fixed-size reusable byte
// buffer, and each record becomes a Job only at the moment Next is
// called. Steady-state Next performs zero heap allocations (pinned by
// TestTraceSourceZeroAlloc): lines are sub-slices of the chunk window,
// fields are parsed in place, and the only state that grows with the
// trace is a handful of counters.
//
// All three native-trace readers — the validation pass ScanTrace, the
// streaming TraceSource and the materialized ReadTrace — take records
// through one record step, traceScanner.next, so they skip, parse and
// drop the same lines. The streaming contract (docs/occupancy-index.md
// §12) differs from ReadTrace in exactly one way: records must already
// be in nondecreasing arrival order (which is what tracegen emits and
// what the format documents). ReadTrace sorts defensively; a stream
// cannot, so an out-of-order record ends the stream with an error
// telling the caller to fall back to the materialized reader. For
// in-order traces the two readers yield bit-identical jobs: same
// accepted records, same IDs, and the same per-record rng draw order
// for the message counts.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"unsafe"

	"repro/internal/stats"
)

// DefaultTraceChunk is the trace reader's window size when the
// constructor is given a non-positive chunk: large enough that refills
// are rare, small enough to be irrelevant next to any mesh state.
const DefaultTraceChunk = 64 * 1024

// traceScanner windows an io.Reader through a fixed buffer and hands
// out newline-terminated lines as sub-slices of that buffer. A line is
// valid only until the next nextLine call (the refill compacts the
// window in place).
type traceScanner struct {
	r          io.Reader
	buf        []byte
	start, end int
	eof        bool
	line       int // lines handed out so far (1-based after the first)
	plane      int // processors per mesh plane; larger requests are dropped
}

// newTraceScanner windows r through a chunk-byte buffer
// (DefaultTraceChunk when chunk is non-positive) for records placed on
// a meshW x meshL plane.
func newTraceScanner(r io.Reader, meshW, meshL, chunk int) traceScanner {
	if chunk <= 0 {
		chunk = DefaultTraceChunk
	}
	return traceScanner{r: r, buf: make([]byte, chunk), plane: meshW * meshL}
}

// nextLine returns the next line (without its terminator), or ok=false
// at the end of the stream or on a read error. A final line without a
// trailing newline — the truncated-final-chunk case — is still handed
// out in full.
func (sc *traceScanner) nextLine() (line []byte, ok bool, err error) {
	for {
		if i := bytes.IndexByte(sc.buf[sc.start:sc.end], '\n'); i >= 0 {
			line = sc.buf[sc.start : sc.start+i]
			sc.start += i + 1
			sc.line++
			return trimCR(line), true, nil
		}
		if sc.eof {
			if sc.start < sc.end {
				line = sc.buf[sc.start:sc.end]
				sc.start = sc.end
				sc.line++
				return trimCR(line), true, nil
			}
			return nil, false, nil
		}
		// No full line in the window: compact the partial tail to the
		// front of the buffer and refill the rest — the one copy that
		// keeps the window fixed-size.
		if sc.start > 0 {
			copy(sc.buf, sc.buf[sc.start:sc.end])
			sc.end -= sc.start
			sc.start = 0
		}
		if sc.end == len(sc.buf) {
			return nil, false, fmt.Errorf("workload: trace line %d exceeds the %d-byte chunk window (raise the chunk size)",
				sc.line+1, len(sc.buf))
		}
		n, rerr := sc.r.Read(sc.buf[sc.end:])
		sc.end += n
		if rerr == io.EOF {
			sc.eof = true
		} else if rerr != nil {
			return nil, false, fmt.Errorf("workload: reading trace: %w", rerr)
		}
	}
}

// trimCR drops a trailing carriage return so CRLF traces parse.
func trimCR(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\r' {
		return b[:n-1]
	}
	return b
}

// traceFields splits a line into up to four fields in place (no
// allocation). Every byte at or below ' ' — space, tab and the other
// ASCII control bytes — separates fields; extra fields are counted but
// not kept.
func traceFields(line []byte, out *[4][]byte) int {
	n := 0
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] <= ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		j := i
		for j < len(line) && line[j] > ' ' {
			j++
		}
		if n < len(out) {
			out[n] = line[i:j]
		}
		n++
		i = j
	}
	return n
}

// bstr views a byte slice as a string without copying, so strconv can
// parse fields in place. The bytes are never mutated while the string
// is alive (the parse happens before the window is refilled), which is
// the safety condition unsafe.String requires.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// traceRecord is one parsed trace line before job shaping.
type traceRecord struct {
	arrival float64
	procs   int
	runtime float64
	depth   int
}

// perPlane is the processors the record requests on each of its
// planes.
func (rec traceRecord) perPlane() int { return (rec.procs + rec.depth - 1) / rec.depth }

// job shapes the record into a Job: ShapeFor against the mesh for its
// per-plane processors, and H set only for records deeper than one
// plane.
func (rec traceRecord) job(id, meshW, meshL, messages int) Job {
	w, l := ShapeFor(rec.perPlane(), meshW, meshL)
	h := 0
	if rec.depth > 1 {
		h = rec.depth
	}
	return Job{ID: id, Arrival: rec.arrival, W: w, L: l, H: h, Compute: rec.runtime, Messages: messages}
}

// parseTraceLine parses one non-empty, non-comment line: three
// mandatory fields, an optional fourth depth field, strconv
// conversions, and an error naming the line and the field for a
// malformed or non-finite value.
func parseTraceLine(fields *[4][]byte, n, lineNo int) (traceRecord, error) {
	var rec traceRecord
	if n < 3 {
		return rec, fmt.Errorf("workload: trace line %d: want 3 fields, got %d", lineNo, n)
	}
	arrival, err := strconv.ParseFloat(bstr(fields[0]), 64)
	if err != nil {
		return rec, fmt.Errorf("workload: trace line %d: bad arrival: %v", lineNo, err)
	}
	if !finite(arrival) {
		return rec, notFinite("trace", lineNo, "arrival", arrival)
	}
	procs, err := strconv.Atoi(bstr(fields[1]))
	if err != nil {
		return rec, fmt.Errorf("workload: trace line %d: bad processor count: %v", lineNo, err)
	}
	runtime, err := strconv.ParseFloat(bstr(fields[2]), 64)
	if err != nil {
		return rec, fmt.Errorf("workload: trace line %d: bad runtime: %v", lineNo, err)
	}
	if !finite(runtime) {
		return rec, notFinite("trace", lineNo, "runtime", runtime)
	}
	depth := 1
	if n >= 4 {
		depth, err = strconv.Atoi(bstr(fields[3]))
		if err != nil {
			return rec, fmt.Errorf("workload: trace line %d: bad depth: %v", lineNo, err)
		}
	}
	rec.arrival, rec.procs, rec.runtime, rec.depth = arrival, procs, runtime, depth
	return rec, nil
}

// skipLine reports whether the line is blank or a '#' comment.
func skipLine(line []byte) bool {
	for _, c := range line {
		if c > ' ' {
			return c == '#'
		}
	}
	return true
}

// next advances to the next usable record. It is the record step of
// all three native-trace readers: it skips blank and '#' lines, parses
// the record, and drops unusable ones (non-positive sizes or depths,
// negative runtimes, more processors per plane than the mesh has).
// ok is false at the end of the trace and on an error.
func (sc *traceScanner) next() (traceRecord, bool, error) {
	var fields [4][]byte
	for {
		line, ok, err := sc.nextLine()
		if !ok {
			return traceRecord{}, false, err
		}
		if skipLine(line) {
			continue
		}
		n := traceFields(line, &fields)
		rec, err := parseTraceLine(&fields, n, sc.line)
		if err != nil {
			return rec, false, err
		}
		if rec.procs <= 0 || rec.depth <= 0 || rec.runtime < 0 || rec.perPlane() > sc.plane {
			continue // unusable record
		}
		return rec, true, nil
	}
}

// TraceSource streams a native-format trace through a fixed-size chunk
// window: O(1) memory for any trace length, zero allocations per job
// in steady state. Construct with NewTraceSource (any reader) or
// OpenTraceSource (a file, closed automatically when the stream ends).
//
// Next returns ok=false both at clean exhaustion and on a malformed or
// out-of-order record; the caller distinguishes the two through Err
// (sim.Run does this automatically and fails the run).
type TraceSource struct {
	name         string
	sc           traceScanner
	closer       io.Closer
	meshW, meshL int
	numMes       float64
	rng          *stats.Stream
	next         int
	last         float64
	started      bool
	err          error
	done         bool
}

// NewTraceSource builds a streaming reader over r. Shapes are derived
// with ShapeFor against the mesh geometry exactly as ReadTrace does;
// message counts are drawn from rng per accepted record in file order
// (the shared draw order of the two readers). chunk is the window size
// in bytes; non-positive selects DefaultTraceChunk, and no line may
// exceed the window.
func NewTraceSource(r io.Reader, name string, meshW, meshL int, numMes float64, rng *stats.Stream, chunk int) *TraceSource {
	return &TraceSource{
		name:   name,
		sc:     newTraceScanner(r, meshW, meshL, chunk),
		meshW:  meshW,
		meshL:  meshL,
		numMes: numMes,
		rng:    rng,
	}
}

// OpenTraceSource opens path and streams it; the file is closed when
// the stream ends (exhaustion, error, or an explicit Close).
func OpenTraceSource(path string, meshW, meshL int, numMes float64, rng *stats.Stream, chunk int) (*TraceSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s := NewTraceSource(f, path, meshW, meshL, numMes, rng, chunk)
	s.closer = f
	return s, nil
}

// Name implements Source.
func (s *TraceSource) Name() string { return s.name }

// Err returns the error that ended the stream, or nil after clean
// exhaustion (or mid-stream).
func (s *TraceSource) Err() error { return s.err }

// Close releases the underlying file (OpenTraceSource) early; streams
// that ran to the end have already closed it.
func (s *TraceSource) Close() error {
	s.done = true
	return s.closeFile()
}

func (s *TraceSource) closeFile() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c.Close()
}

// fail ends the stream with an error.
func (s *TraceSource) fail(err error) (Job, bool) {
	s.err = err
	s.done = true
	s.closeFile()
	return Job{}, false
}

// Next implements Source: it advances the window to the next usable
// record and shapes it into a Job.
func (s *TraceSource) Next() (Job, bool) {
	if s.done {
		return Job{}, false
	}
	rec, ok, err := s.sc.next()
	if err != nil {
		return s.fail(err)
	}
	if !ok {
		s.done = true
		if err := s.closeFile(); err != nil {
			s.err = err
		}
		return Job{}, false
	}
	if s.started && rec.arrival < s.last {
		return s.fail(fmt.Errorf("workload: trace line %d: arrival %g before predecessor %g — the streaming reader requires nondecreasing arrivals (sort the trace or use the materialized ReadTrace)",
			s.sc.line, rec.arrival, s.last))
	}
	s.started = true
	s.last = rec.arrival
	j := rec.job(s.next, s.meshW, s.meshL, s.rng.ExpInt(s.numMes))
	s.next++
	return j, true
}

// TraceStats summarizes one O(1)-memory scan over a trace: the record
// count and arrival extremes load scaling needs, the deepest request
// for geometry validation, and whether the records were already in
// arrival order (the streaming reader's precondition).
type TraceStats struct {
	Jobs       int     // usable records
	MinArrival float64 // earliest accepted arrival
	MaxArrival float64 // latest accepted arrival
	MaxDepth   int     // deepest accepted request (1 for planar traces)
	Ordered    bool    // arrivals nondecreasing in file order
}

// MeanInterarrival returns the average gap between consecutive
// arrivals, 0 for fewer than two jobs. For a sorted trace this is
// bit-identical to MeanInterarrival over the materialized jobs: both
// reduce to (max-min)/(n-1) on the same parsed floats.
func (t TraceStats) MeanInterarrival() float64 {
	if t.Jobs < 2 {
		return 0
	}
	return (t.MaxArrival - t.MinArrival) / float64(t.Jobs-1)
}

// ScanTrace makes the validation pass of the two-pass streaming
// protocol: one sequential read through the trace with the same chunk
// window and the same record step as TraceSource, but no rng draws and
// no jobs — just the stats. Malformed records fail here, at setup, so
// the streaming pass behind a running simulation cannot trip over
// them.
func ScanTrace(r io.Reader, meshW, meshL int, chunk int) (TraceStats, error) {
	sc := newTraceScanner(r, meshW, meshL, chunk)
	st := TraceStats{Ordered: true}
	prev := 0.0
	for {
		rec, ok, err := sc.next()
		if !ok {
			return st, err
		}
		if st.Jobs == 0 {
			st.MinArrival, st.MaxArrival = rec.arrival, rec.arrival
		} else {
			if rec.arrival < prev {
				st.Ordered = false
			}
			if rec.arrival < st.MinArrival {
				st.MinArrival = rec.arrival
			}
			if rec.arrival > st.MaxArrival {
				st.MaxArrival = rec.arrival
			}
		}
		prev = rec.arrival
		if rec.depth > st.MaxDepth {
			st.MaxDepth = rec.depth
		}
		st.Jobs++
	}
}

// ScanTraceFile runs ScanTrace over a file.
func ScanTraceFile(path string, meshW, meshL int, chunk int) (TraceStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceStats{}, err
	}
	defer f.Close()
	return ScanTrace(f, meshW, meshL, chunk)
}
