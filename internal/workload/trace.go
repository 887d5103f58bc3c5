package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// This file implements trace I/O. Two formats are supported:
//
//   - the native format: one "arrival procs runtime" triple per line
//     (fields separated by spaces, tabs or any other byte at or below
//     ' '; '#' comments), which is what cmd/tracegen
//     emits. A fourth optional field carries the requested depth for
//     3D-mesh traces (tracegen -depth); triples read as depth 1, so
//     every pre-PR 4 trace still parses; and
//   - the Standard Workload Format (SWF) of the Feitelson archive,
//     where the SDSC Paragon traces are published: ';' header comments
//     and 18 whitespace-separated fields per job, of which we use
//     submit time (2), run time (4) and allocated processors (5).
//
// Both readers drop unusable records (non-positive sizes, negative
// runtimes) exactly as trace-driven studies conventionally do. A NaN
// or infinite arrival or runtime is an error, not an unusable record:
// it would pass every "< 0" check and reach the simulator's clock.

// finite reports whether a parsed time field is neither NaN nor
// infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// notFinite is the error for a NaN or infinite time field of a trace
// record, naming the format, the line and the field. The materialized
// and the streaming readers share it, so both report the same message.
// It stays out of line so that its formatting does not grow the stack
// frame of the per-record parsers.
//
//go:noinline
func notFinite(format string, line int, field string, v float64) error {
	return fmt.Errorf("workload: %s line %d: %s %v is not finite", format, line, field, v)
}

// ReadTrace parses a native-format trace and returns its usable
// records sorted by arrival. It takes records through the streaming
// readers' record step (one line may be up to 1 MiB), so it skips,
// parses and drops exactly the lines they do. Shapes are derived with
// ShapeFor against the given mesh geometry (a depth-d record shapes
// its per-plane processors and requests d planes); per-processor
// message counts are drawn from rng with mean numMes, one draw per
// usable record in file order (they are a property of the simulated
// communication, not of the trace).
func ReadTrace(r io.Reader, meshW, meshL int, numMes float64, rng *stats.Stream) ([]Job, error) {
	sc := newTraceScanner(r, meshW, meshL, 1<<20)
	var jobs []Job
	for {
		rec, ok, err := sc.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		jobs = append(jobs, rec.job(len(jobs), meshW, meshL, rng.ExpInt(numMes)))
	}
	sortByArrival(jobs)
	return jobs, nil
}

// WriteTrace emits jobs in the native format. A trace containing any
// depth-carrying job is written in the four-field "arrival procs
// runtime depth" form; all-planar traces keep the classic triple, so
// 2D traces round-trip byte-identically.
func WriteTrace(w io.Writer, jobs []Job) error {
	deep := false
	for _, j := range jobs {
		if j.Depth() > 1 {
			deep = true
			break
		}
	}
	bw := bufio.NewWriter(w)
	header := "# arrival procs runtime"
	if deep {
		header += " depth"
	}
	if _, err := fmt.Fprintln(bw, header); err != nil {
		return err
	}
	for _, j := range jobs {
		if err := writeTraceRow(bw, j, deep); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeTraceRow emits one native-format record — the row format shared
// by WriteTrace and the streaming WriteTraceStream.
func writeTraceRow(w io.Writer, j Job, deep bool) error {
	var err error
	if deep {
		_, err = fmt.Fprintf(w, "%.3f %d %.3f %d\n", j.Arrival, j.Size(), j.Compute, j.Depth())
	} else {
		_, err = fmt.Fprintf(w, "%.3f %d %.3f\n", j.Arrival, j.Size(), j.Compute)
	}
	return err
}

// TraceWriteSummary reports what WriteTraceStream emitted, accumulated
// on the fly — the diagnostics tracegen prints, without holding the
// jobs.
type TraceWriteSummary struct {
	Jobs               int     // records written
	MeanInterarrival   float64 // (last-first)/(n-1), 0 under two jobs
	MeanSize           float64 // average processor count
	PowerOfTwoFraction float64 // fraction of power-of-two sizes
}

// WriteTraceStream drains src into w in the native format, holding
// O(1) memory however long the stream. deep selects the four-field
// "arrival procs runtime depth" form; unlike WriteTrace, which scans
// the materialized slice for depth-carrying jobs, a stream cannot be
// pre-scanned, so the caller decides (a deep trace whose draws all
// landed on depth 1 is still written four-field — readers accept both).
// The stream's own error, if it ends on one, is returned.
func WriteTraceStream(w io.Writer, src Source, deep bool) (TraceWriteSummary, error) {
	var sum TraceWriteSummary
	bw := bufio.NewWriter(w)
	header := "# arrival procs runtime"
	if deep {
		header += " depth"
	}
	if _, err := fmt.Fprintln(bw, header); err != nil {
		return sum, err
	}
	first, last := 0.0, 0.0
	sizes, pow2 := 0, 0
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		if err := writeTraceRow(bw, j, deep); err != nil {
			return sum, err
		}
		if sum.Jobs == 0 {
			first = j.Arrival
		}
		last = j.Arrival
		sizes += j.Size()
		if isPowerOfTwo(j.Size()) {
			pow2++
		}
		sum.Jobs++
	}
	if err := SourceErr(src); err != nil {
		return sum, err
	}
	if sum.Jobs > 1 {
		sum.MeanInterarrival = (last - first) / float64(sum.Jobs-1)
	}
	if sum.Jobs > 0 {
		sum.MeanSize = float64(sizes) / float64(sum.Jobs)
		sum.PowerOfTwoFraction = float64(pow2) / float64(sum.Jobs)
	}
	return sum, bw.Flush()
}

// ReadSWF parses a Standard Workload Format trace.
func ReadSWF(r io.Reader, meshW, meshL int, numMes float64, rng *stats.Stream) ([]Job, error) {
	var jobs []Job
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, ";") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 5 {
			return nil, fmt.Errorf("workload: SWF line %d: want >= 5 fields, got %d", line, len(fields))
		}
		submit, err1 := strconv.ParseFloat(fields[1], 64)
		runtime, err2 := strconv.ParseFloat(fields[3], 64)
		procs, err3 := strconv.Atoi(fields[4])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("workload: SWF line %d: malformed record", line)
		}
		if !finite(submit) {
			return nil, notFinite("SWF", line, "submit time", submit)
		}
		if !finite(runtime) {
			return nil, notFinite("SWF", line, "run time", runtime)
		}
		if procs <= 0 || procs > meshW*meshL || runtime < 0 {
			continue
		}
		w, l := ShapeFor(procs, meshW, meshL)
		jobs = append(jobs, Job{
			ID:       len(jobs),
			Arrival:  submit,
			W:        w,
			L:        l,
			Compute:  runtime,
			Messages: rng.ExpInt(numMes),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading SWF: %w", err)
	}
	sortByArrival(jobs)
	return jobs, nil
}

func sortByArrival(jobs []Job) {
	sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].Arrival < jobs[k].Arrival })
	for i := range jobs {
		jobs[i].ID = i
	}
}
