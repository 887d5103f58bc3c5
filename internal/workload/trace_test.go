package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestReadTraceNative(t *testing.T) {
	in := `# arrival procs runtime
100.0 4 500.0
250.5 33 1200.0

# comment mid-file
300.0 352 60.0
`
	jobs, err := ReadTrace(strings.NewReader(in), 16, 22, 5, stats.NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(jobs))
	}
	if jobs[0].Arrival != 100 || jobs[0].Compute != 500 {
		t.Fatalf("job 0 = %+v", jobs[0])
	}
	if jobs[0].Size() != 4 {
		t.Fatalf("job 0 size = %d, want 4", jobs[0].Size())
	}
	// 33 processors inflate to a shape covering >= 33.
	if jobs[1].Size() < 33 {
		t.Fatalf("job 1 size = %d, want >= 33", jobs[1].Size())
	}
	if jobs[2].W != 16 || jobs[2].L != 22 {
		t.Fatalf("job 2 shape = %dx%d, want 16x22", jobs[2].W, jobs[2].L)
	}
	for i, j := range jobs {
		if j.Messages < 1 {
			t.Fatalf("job %d messages = %d", i, j.Messages)
		}
	}
}

func TestReadTraceSkipsUnusable(t *testing.T) {
	in := `10 0 50
20 -3 50
30 999 50
40 4 -1
50 4 60
`
	jobs, err := ReadTrace(strings.NewReader(in), 16, 22, 5, stats.NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Arrival != 50 {
		t.Fatalf("jobs = %+v, want only the last record", jobs)
	}
}

func TestReadTraceMalformed(t *testing.T) {
	for _, in := range []string{"abc 4 50", "10 x 50", "10 4 y", "10 4"} {
		if _, err := ReadTrace(strings.NewReader(in), 16, 22, 5, stats.NewStream(1)); err == nil {
			t.Errorf("ReadTrace(%q) succeeded", in)
		}
	}
}

func TestReadTraceSortsByArrival(t *testing.T) {
	in := "300 4 10\n100 9 20\n200 2 30\n"
	jobs, err := ReadTrace(strings.NewReader(in), 16, 22, 5, stats.NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Arrival != 100 || jobs[1].Arrival != 200 || jobs[2].Arrival != 300 {
		t.Fatalf("not sorted: %v %v %v", jobs[0].Arrival, jobs[1].Arrival, jobs[2].Arrival)
	}
	for i, j := range jobs {
		if j.ID != i {
			t.Fatalf("IDs not renumbered: job %d has ID %d", i, j.ID)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	spec := ParagonSpec{Jobs: 200, MeshW: 16, MeshL: 22, MeanInterarrival: 100, NumMes: 5}
	orig := SyntheticParagon(spec, 21)
	var sb strings.Builder
	if err := WriteTrace(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(strings.NewReader(sb.String()), 16, 22, 5, stats.NewStream(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip lost jobs: %d vs %d", len(back), len(orig))
	}
	for i := range back {
		if back[i].Size() != orig[i].Size() {
			t.Fatalf("job %d size %d != %d", i, back[i].Size(), orig[i].Size())
		}
		if diff := back[i].Arrival - orig[i].Arrival; diff > 0.001 || diff < -0.001 {
			t.Fatalf("job %d arrival %v != %v", i, back[i].Arrival, orig[i].Arrival)
		}
	}
}

func TestReadSWF(t *testing.T) {
	in := `; SDSC Paragon excerpt
; MaxNodes: 352
1 1000 5 3600 32 -1 -1 32 -1 -1 1 1 1 1 1 1 1 1
2 2000 5 60 100 -1 -1 100 -1 -1 1 1 1 1 1 1 1 1
3 3000 5 -1 16 -1 -1 16 -1 -1 1 1 1 1 1 1 1 1
4 4000 5 10 0 -1 -1 0 -1 -1 1 1 1 1 1 1 1 1
`
	jobs, err := ReadSWF(strings.NewReader(in), 16, 22, 5, stats.NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	// Job 3 has negative runtime, job 4 zero processors: dropped.
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(jobs))
	}
	if jobs[0].Arrival != 1000 || jobs[0].Compute != 3600 || jobs[0].Size() < 32 {
		t.Fatalf("job 0 = %+v", jobs[0])
	}
	if jobs[1].Size() < 100 {
		t.Fatalf("job 1 size = %d, want >= 100", jobs[1].Size())
	}
}

func TestReadSWFMalformed(t *testing.T) {
	if _, err := ReadSWF(strings.NewReader("1 2 3"), 16, 22, 5, stats.NewStream(1)); err == nil {
		t.Fatal("short SWF record accepted")
	}
	if _, err := ReadSWF(strings.NewReader("1 x 5 60 100"), 16, 22, 5, stats.NewStream(1)); err == nil {
		t.Fatal("malformed SWF record accepted")
	}
}

// TestTraceReadersRejectNonFiniteTimes: a NaN or infinite arrival or
// runtime passes every "< 0" usability check, so each reader must
// reject it by name and line. ReadTrace, TraceSource and ScanTrace(File)
// parse the native format and must agree on the message word for word.
func TestTraceReadersRejectNonFiniteTimes(t *testing.T) {
	native := []struct{ line, want string }{
		{"NaN 4 10", "workload: trace line 3: arrival NaN is not finite"},
		{"+Inf 4 10", "workload: trace line 3: arrival +Inf is not finite"},
		{"-Inf 4 10", "workload: trace line 3: arrival -Inf is not finite"},
		{"1 4 NaN", "workload: trace line 3: runtime NaN is not finite"},
		{"1 4 Inf", "workload: trace line 3: runtime +Inf is not finite"},
		{"1 4 -Inf", "workload: trace line 3: runtime -Inf is not finite"},
		{"NaN 4 NaN 2", "workload: trace line 3: arrival NaN is not finite"},
	}
	for _, c := range native {
		text := "# arrival procs runtime\n0 4 10\n" + c.line + "\n5 4 10\n"
		readers := map[string]func() error{
			"ReadTrace": func() error {
				_, err := ReadTrace(strings.NewReader(text), 16, 22, 5, stats.NewStream(1))
				return err
			},
			"TraceSource": func() error {
				src := NewTraceSource(strings.NewReader(text), "t", 16, 22, 5, stats.NewStream(1), 64)
				for {
					if _, ok := src.Next(); !ok {
						return src.Err()
					}
				}
			},
			"ScanTrace": func() error {
				_, err := ScanTrace(strings.NewReader(text), 16, 22, 64)
				return err
			},
			"ScanTraceFile": func() error {
				path := filepath.Join(t.TempDir(), "trace.txt")
				if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := ScanTraceFile(path, 16, 22, 64)
				return err
			},
		}
		for name, read := range readers {
			if err := read(); err == nil || err.Error() != c.want {
				t.Errorf("%s on %q: error %v, want %q", name, c.line, err, c.want)
			}
		}
	}
	swf := []struct{ line, want string }{
		{"2 NaN 0 10 4", "workload: SWF line 3: submit time NaN is not finite"},
		{"2 Inf 0 10 4", "workload: SWF line 3: submit time +Inf is not finite"},
		{"2 1 0 NaN 4", "workload: SWF line 3: run time NaN is not finite"},
		{"2 1 0 -Inf 4", "workload: SWF line 3: run time -Inf is not finite"},
	}
	for _, c := range swf {
		text := "; SWF header\n1 0 0 10 4\n" + c.line + "\n"
		if _, err := ReadSWF(strings.NewReader(text), 16, 22, 5, stats.NewStream(1)); err == nil || err.Error() != c.want {
			t.Errorf("ReadSWF on %q: error %v, want %q", c.line, err, c.want)
		}
	}
}
