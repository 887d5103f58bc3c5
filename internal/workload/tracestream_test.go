package workload

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
)

// genTraceText renders a synthetic trace to text through the streaming
// writer — the same bytes tracegen would emit.
func genTraceText(t *testing.T, jobs int, seed int64, deep bool) string {
	t.Helper()
	spec := DefaultParagon()
	spec.Jobs = jobs
	var src Source = NewParagonSource(spec, seed)
	if deep {
		src = NewDeepened(src, spec.MeshW, spec.MeshL, 4, stats.NewStream(seed+1))
	}
	var buf bytes.Buffer
	if _, err := WriteTraceStream(&buf, src, deep); err != nil {
		t.Fatalf("writing trace: %v", err)
	}
	return buf.String()
}

// drainTrace reads an entire TraceSource, failing on a stream error.
func drainTrace(t *testing.T, s *TraceSource) []Job {
	t.Helper()
	var jobs []Job
	for {
		j, ok := s.Next()
		if !ok {
			break
		}
		jobs = append(jobs, j)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	return jobs
}

// TestTraceSourceMatchesReadTrace is the byte-identity gate for the
// chunked reader: for an ordered trace, streaming with the same rng
// seed yields exactly the jobs of the materialized ReadTrace — across
// a spread of chunk sizes down to ones that force a refill every few
// bytes, so records land on every possible chunk-boundary offset.
func TestTraceSourceMatchesReadTrace(t *testing.T) {
	for _, deep := range []bool{false, true} {
		text := genTraceText(t, 400, 21, deep)
		want, err := ReadTrace(strings.NewReader(text), 16, 22, 5, stats.NewStream(77))
		if err != nil {
			t.Fatalf("deep=%v: ReadTrace: %v", deep, err)
		}
		for _, chunk := range []int{0, 32, 33, 64, 100, 4096} {
			src := NewTraceSource(strings.NewReader(text), "t", 16, 22, 5, stats.NewStream(77), chunk)
			got := drainTrace(t, src)
			if len(got) != len(want) {
				t.Fatalf("deep=%v chunk=%d: %d jobs streamed, %d materialized", deep, chunk, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("deep=%v chunk=%d job %d: stream %+v, materialized %+v", deep, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

// separatorCases are the one-verdict-per-record cases of the three
// native-trace readers. Bytes at or below ' ' separate fields, so a
// control byte or a tab does; NBSP (U+00A0) and NEL (U+0085) are
// multi-byte runes and do not. All three readers share one line limit,
// the default chunk window, so lines padded past it fail in each.
var separatorCases = []struct {
	name, sep, eol string
	want           string // the error; "" when all three records are accepted
}{
	{"control byte", "\x01", "\n", ""},
	{"NBSP", "\u00a0", "\n", "workload: trace line 2: want 3 fields, got 2"},
	{"NEL", "\u0085", "\n", "workload: trace line 2: want 3 fields, got 2"},
	{"tab", "\t", "\n", ""},
	{"CRLF", " ", "\r\n", ""},
	{"100 KiB of trailing spaces", " ", strings.Repeat(" ", 100<<10) + "\n",
		"workload: trace line 1 exceeds the 65536-byte chunk window"},
}

// separatorText renders a separator case as a three-record trace, its
// second record split by the case's separator; unsorted moves the first
// arrival past the others.
func separatorText(sep, eol string, sorted bool) string {
	first := "1"
	if !sorted {
		first = "9"
	}
	return first + " 4 10" + eol + "3" + sep + "4 10" + eol + "5 4 10" + eol
}

// errText is an error's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// streamAll drains a TraceSource over text, returning the jobs it
// yielded and the error that ended it.
func streamAll(text string) ([]Job, error) {
	src := NewTraceSource(strings.NewReader(text), "t", 16, 22, 5, stats.NewStream(3), 0)
	var streamed []Job
	for j, ok := src.Next(); ok; j, ok = src.Next() {
		streamed = append(streamed, j)
	}
	return streamed, src.Err()
}

// TestTraceReadersAgreeOnSeparators holds the three native-trace
// readers to one verdict per record (separatorCases). On a sorted trace
// the validation scan, the stream and the materialized reader must
// accept the same records or fail with the same error; on an unsorted
// one the scan and the materialized reader, meshsim's fallback pair,
// must.
func TestTraceReadersAgreeOnSeparators(t *testing.T) {
	for _, c := range separatorCases {
		for _, sorted := range []bool{true, false} {
			text := separatorText(c.sep, c.eol, sorted)
			st, scanErr := ScanTrace(strings.NewReader(text), 16, 22, 0)
			jobs, readErr := ReadTrace(strings.NewReader(text), 16, 22, 5, stats.NewStream(3))
			if got := errText(scanErr); got != c.want {
				t.Errorf("%s sorted=%v: ScanTrace error %q, want %q", c.name, sorted, got, c.want)
			}
			if got := errText(readErr); got != errText(scanErr) {
				t.Errorf("%s sorted=%v: ReadTrace error %q, ScanTrace error %q", c.name, sorted, got, errText(scanErr))
			}
			if c.want == "" && (st.Jobs != 3 || len(jobs) != 3) {
				t.Errorf("%s sorted=%v: ScanTrace accepted %d records, ReadTrace %d, want 3", c.name, sorted, st.Jobs, len(jobs))
			}
			if !sorted {
				continue
			}
			streamed, streamErr := streamAll(text)
			if got := errText(streamErr); got != errText(scanErr) {
				t.Errorf("%s: TraceSource error %q, ScanTrace error %q", c.name, got, errText(scanErr))
			}
			if c.want == "" && !slices.Equal(streamed, jobs) {
				t.Errorf("%s: streamed %+v, materialized %+v", c.name, streamed, jobs)
			}
		}
	}
}

// FuzzTraceSource holds the three native-trace readers to one another
// on arbitrary bytes: the validation scan and the materialized reader
// fail with the same error or accept the same number of records; when
// they accept, the scan calls the trace ordered exactly when the stream
// drains it without its ordering error, and an ordered trace streams
// exactly the materialized jobs. The seeds are the separator cases.
func FuzzTraceSource(f *testing.F) {
	for _, c := range separatorCases {
		f.Add(separatorText(c.sep, c.eol, true))
		f.Add(separatorText(c.sep, c.eol, false))
	}
	f.Fuzz(func(t *testing.T, text string) {
		st, scanErr := ScanTrace(strings.NewReader(text), 16, 22, 0)
		jobs, readErr := ReadTrace(strings.NewReader(text), 16, 22, 5, stats.NewStream(3))
		if errText(scanErr) != errText(readErr) {
			t.Fatalf("ScanTrace error %q, ReadTrace error %q", errText(scanErr), errText(readErr))
		}
		if scanErr != nil {
			return
		}
		if st.Jobs != len(jobs) {
			t.Fatalf("ScanTrace accepted %d records, ReadTrace %d", st.Jobs, len(jobs))
		}
		streamed, streamErr := streamAll(text)
		switch {
		case st.Ordered && streamErr != nil:
			t.Fatalf("ScanTrace says ordered, TraceSource failed: %v", streamErr)
		case !st.Ordered && !strings.Contains(errText(streamErr), "requires nondecreasing arrivals"):
			t.Fatalf("ScanTrace says unordered, TraceSource ended with %q", errText(streamErr))
		case st.Ordered && !slices.Equal(streamed, jobs):
			t.Fatalf("streamed %+v, materialized %+v", streamed, jobs)
		}
	})
}

// TestTraceSourceTruncatedFinalLine checks a final record without a
// trailing newline is still parsed — the truncated-final-chunk case.
func TestTraceSourceTruncatedFinalLine(t *testing.T) {
	text := "1.0 4 10.0\n2.5 8 20.0" // no trailing newline
	src := NewTraceSource(strings.NewReader(text), "t", 16, 22, 5, stats.NewStream(1), 16)
	jobs := drainTrace(t, src)
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(jobs))
	}
	if jobs[1].Arrival != 2.5 || jobs[1].Size() != 8 || jobs[1].Compute != 20.0 {
		t.Fatalf("truncated final record parsed as %+v", jobs[1])
	}
}

// TestTraceSourceSkipAndComments checks drop/skip semantics match the
// materialized reader: comments, blank lines, CRLF endings, unusable
// records (non-positive sizes, negative runtimes, oversize requests)
// are all passed over without consuming IDs or rng draws.
func TestTraceSourceSkipAndComments(t *testing.T) {
	text := "# header comment\r\n" +
		"\n" +
		"1.0 4 10.0\r\n" +
		"2.0 0 5.0\n" + // non-positive size: dropped
		"3.0 4 -1.0\n" + // negative runtime: dropped
		"4.0 9999 5.0\n" + // larger than the 4x4 mesh: dropped
		"   \n" +
		"5.0 2 7.0 0\n" + // non-positive depth: dropped
		"6.0 2 7.0\n"
	want, err := ReadTrace(strings.NewReader(text), 4, 4, 5, stats.NewStream(9))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	src := NewTraceSource(strings.NewReader(text), "t", 4, 4, 5, stats.NewStream(9), 24)
	got := drainTrace(t, src)
	if len(got) != 2 || len(want) != 2 {
		t.Fatalf("got %d streamed / %d materialized jobs, want 2/2", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job %d: stream %+v, materialized %+v", i, got[i], want[i])
		}
	}
}

// TestTraceSourceDepthColumn checks four-column records shape into
// cuboid requests: per-plane processors against the mesh, H carrying
// the depth.
func TestTraceSourceDepthColumn(t *testing.T) {
	text := "0.0 32 10.0 4\n1.0 5 3.0 1\n"
	src := NewTraceSource(strings.NewReader(text), "t", 16, 22, 5, stats.NewStream(2), 0)
	jobs := drainTrace(t, src)
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(jobs))
	}
	if jobs[0].Depth() != 4 || jobs[0].W*jobs[0].L != 8 {
		t.Fatalf("deep record shaped as %+v (want depth 4, 8 per plane)", jobs[0])
	}
	if jobs[1].Depth() != 1 || jobs[1].H != 0 {
		t.Fatalf("explicit depth-1 record shaped as %+v (want planar H=0)", jobs[1])
	}
}

// TestTraceSourceErrors checks each malformed-input class ends the
// stream with Err set and the materialized reader's message.
func TestTraceSourceErrors(t *testing.T) {
	cases := map[string]struct {
		text string
		want string
	}{
		"too few fields": {"1.0 4\n", "want 3 fields, got 2"},
		"bad arrival":    {"x 4 10.0\n", "bad arrival"},
		"bad procs":      {"1.0 x 10.0\n", "bad processor count"},
		"bad runtime":    {"1.0 4 x\n", "bad runtime"},
		"bad depth":      {"1.0 4 10.0 x\n", "bad depth"},
		"out of order":   {"5.0 4 10.0\n2.0 4 10.0\n", "nondecreasing arrivals"},
		"line too long":  {strings.Repeat("9", 200) + " 4 10.0\n", "chunk window"},
	}
	for name, tc := range cases {
		src := NewTraceSource(strings.NewReader(tc.text), "t", 16, 22, 5, stats.NewStream(1), 64)
		for {
			if _, ok := src.Next(); !ok {
				break
			}
		}
		err := src.Err()
		if err == nil {
			t.Errorf("%s: stream ended cleanly, want error containing %q", name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", name, err, tc.want)
		}
		if _, ok := src.Next(); ok {
			t.Errorf("%s: Next yields after a stream error", name)
		}
	}
}

// TestScanTraceStats checks the validation pass computes the same
// accept/drop outcome and the same scaling mean as the materialized
// pipeline, and detects disorder.
func TestScanTraceStats(t *testing.T) {
	text := genTraceText(t, 300, 13, true)
	jobs, err := ReadTrace(strings.NewReader(text), 16, 22, 5, stats.NewStream(1))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	st, err := ScanTrace(strings.NewReader(text), 16, 22, 57)
	if err != nil {
		t.Fatalf("ScanTrace: %v", err)
	}
	if st.Jobs != len(jobs) {
		t.Fatalf("scan counted %d jobs, materialized %d", st.Jobs, len(jobs))
	}
	if !st.Ordered {
		t.Fatal("generator output scanned as unordered")
	}
	if st.MaxDepth < 2 {
		t.Fatalf("deep trace scanned with MaxDepth %d", st.MaxDepth)
	}
	if want := MeanInterarrival(jobs); st.MeanInterarrival() != want {
		t.Fatalf("scan mean interarrival %v != materialized %v", st.MeanInterarrival(), want)
	}

	unordered := "3.0 4 10.0\n1.0 4 10.0\n"
	st, err = ScanTrace(strings.NewReader(unordered), 16, 22, 0)
	if err != nil {
		t.Fatalf("ScanTrace(unordered): %v", err)
	}
	if st.Ordered {
		t.Fatal("out-of-order trace scanned as ordered")
	}
	if st.MinArrival != 1.0 || st.MaxArrival != 3.0 {
		t.Fatalf("extremes %v..%v, want 1..3", st.MinArrival, st.MaxArrival)
	}

	if st, err := ScanTrace(strings.NewReader("# empty\n"), 16, 22, 0); err != nil || st.Jobs != 0 || st.MeanInterarrival() != 0 {
		t.Fatalf("empty trace scan: %+v, %v", st, err)
	}
}

// TestTraceSourceZeroAlloc pins the steady-state allocation count of
// the chunked reader at zero — the constant-memory claim at the
// per-job level. The refill copy stays inside the fixed window; only
// the strconv parses touch the bytes, in place.
func TestTraceSourceZeroAlloc(t *testing.T) {
	text := genTraceText(t, 5000, 31, false)
	src := NewTraceSource(strings.NewReader(text), "t", 16, 22, 5, stats.NewStream(4), 0)
	src.Next() // warm: first refill fills the window
	if n := testing.AllocsPerRun(500, func() { src.Next() }); n != 0 {
		t.Fatalf("TraceSource.Next allocates %v per job, want 0", n)
	}
}

// TestWriteTraceStreamMatchesWriteTrace checks the streaming writer
// emits byte-identical output to the materialized WriteTrace, and its
// on-the-fly summary matches slice-side statistics.
func TestWriteTraceStreamMatchesWriteTrace(t *testing.T) {
	spec := DefaultParagon()
	spec.Jobs = 200
	jobs := SyntheticParagon(spec, 17)

	var want bytes.Buffer
	if err := WriteTrace(&want, jobs); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var got bytes.Buffer
	sum, err := WriteTraceStream(&got, NewParagonSource(spec, 17), false)
	if err != nil {
		t.Fatalf("WriteTraceStream: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("streamed trace bytes differ from materialized WriteTrace output")
	}
	if sum.Jobs != len(jobs) {
		t.Fatalf("summary counted %d jobs, want %d", sum.Jobs, len(jobs))
	}
	if want := MeanInterarrival(jobs); sum.MeanInterarrival != want {
		t.Fatalf("summary mean interarrival %v, want %v", sum.MeanInterarrival, want)
	}
	if want := MeanSize(jobs); sum.MeanSize != want {
		t.Fatalf("summary mean size %v, want %v", sum.MeanSize, want)
	}
	if want := FractionPowerOfTwoSizes(jobs); sum.PowerOfTwoFraction != want {
		t.Fatalf("summary pow2 fraction %v, want %v", sum.PowerOfTwoFraction, want)
	}
}

// TestTraceRoundTripStreamed checks generate → stream-write →
// stream-read round-trips the sized/timed fields for every job.
func TestTraceRoundTripStreamed(t *testing.T) {
	text := genTraceText(t, 250, 23, true)
	src := NewTraceSource(strings.NewReader(text), "t", 16, 22, 5, stats.NewStream(8), 0)
	jobs := drainTrace(t, src)

	spec := DefaultParagon()
	spec.Jobs = 250
	orig := DeepenTrace(SyntheticParagon(spec, 23), spec.MeshW, spec.MeshL, 4, stats.NewStream(24))
	if len(jobs) != len(orig) {
		t.Fatalf("round trip kept %d of %d jobs", len(jobs), len(orig))
	}
	for i := range orig {
		if jobs[i].Size() != orig[i].Size() || jobs[i].Depth() != orig[i].Depth() {
			t.Fatalf("job %d geometry changed: %+v vs %+v", i, jobs[i], orig[i])
		}
	}
}
