package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// runEnv marks a child process of the test binary that runs meshsim's
// main with the child's arguments instead of the tests.
const runEnv = "MESHSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInvalidRunFlagsExitWithError runs meshsim on flag combinations
// that used to panic, never terminate, or be silently ignored: each
// must exit non-zero within the deadline, without a panic, naming the
// offending flag.
func TestInvalidRunFlagsExitWithError(t *testing.T) {
	tl := filepath.Join(t.TempDir(), "timeline.csv")
	tr := writeTrace(t, "0 4 10", "5 8 20", "9 2 30")
	trace := func(nummes string) []string {
		return []string{"-workload", "trace", "-trace", tr, "-nummes", nummes, "-width", "8", "-length", "8"}
	}
	cases := []struct {
		name string
		args []string
		flag string
	}{
		{"zero load", []string{"-load", "0"}, "-load"},
		{"negative load", []string{"-load", "-0.5"}, "-load"},
		{"NaN load", []string{"-load", "NaN"}, "-load"},
		{"zero jobs without duration", []string{"-jobs", "0"}, "-jobs"},
		{"negative jobs", []string{"-jobs", "-3"}, "-jobs"},
		{"negative jobs with duration", []string{"-jobs", "-3", "-duration", "1000"}, "-jobs"},
		{"NaN think", []string{"-think", "NaN"}, "-think"},
		{"NaN start time", []string{"-start-time", "NaN"}, "-start-time"},
		{"NaN duration", []string{"-duration", "NaN"}, "-duration"},
		{"infinite duration", []string{"-jobs", "0", "-duration", "Inf"}, "-duration"},
		{"NaN time scale", []string{"-time-scale", "NaN"}, "-time-scale"},
		{"NaN router delay", []string{"-ts", "NaN"}, "-ts"},
		{"infinite router delay", []string{"-ts", "Inf"}, "-ts"},
		{"infinite load", []string{"-load", "Inf"}, "-load"},
		{"NaN diurnal period", []string{"-diurnal-period", "NaN", "-diurnal-amplitude", "0.5"}, "-diurnal-period"},
		{"infinite diurnal period", []string{"-diurnal-period", "Inf", "-diurnal-amplitude", "0.5"}, "-diurnal-period"},
		{"NaN diurnal amplitude", []string{"-diurnal-period", "1000", "-diurnal-amplitude", "NaN"}, "-diurnal-amplitude"},
		{"NaN timeline interval", []string{"-timeline", tl, "-duration", "1000", "-timeline-interval", "NaN"}, "-timeline-interval"},
		{"negative timeline interval", []string{"-timeline", tl, "-duration", "1000", "-timeline-interval", "-5"}, "-timeline-interval"},
		{"zero nummes", trace("0"), "-nummes"},
		{"negative nummes", trace("-1"), "-nummes"},
		{"NaN nummes", trace("NaN"), "-nummes"},
		{"infinite nummes", trace("Inf"), "-nummes"},
		{"nummes without trace", []string{"-workload", "uniform", "-nummes", "1"}, "-nummes"},
		{"infinite mtbf", []string{"-mtbf", "Inf"}, "-mtbf"},
		{"negative mttr", []string{"-mtbf", "100000", "-mttr", "-5"}, "-mttr"},
		{"NaN mttr", []string{"-mtbf", "100000", "-mttr", "NaN"}, "-mttr"},
		{"infinite mttr", []string{"-mtbf", "100000", "-mttr", "Inf"}, "-mttr"},
		{"infinite link mtbf", []string{"-link-mtbf", "Inf"}, "-link-mtbf"},
		{"negative link mttr", []string{"-link-mtbf", "100000", "-link-mttr", "-5"}, "-link-mttr"},
		{"NaN link mttr", []string{"-link-mtbf", "100000", "-link-mttr", "NaN"}, "-link-mttr"},
		{"infinite link mttr", []string{"-link-mtbf", "100000", "-link-mttr", "Inf"}, "-link-mttr"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { expectRejected(t, c.args, c.flag) })
	}
}

// expectRejected runs meshsim with args and requires a non-zero exit
// within the deadline, without a panic, with a message naming what.
func expectRejected(t *testing.T, args []string, what string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runEnv+"=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("meshsim %v did not terminate within the deadline", args)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("meshsim %v: want a non-zero exit, got %v\n%s", args, err, out)
	}
	if strings.Contains(string(out), "panic") {
		t.Fatalf("meshsim %v panicked:\n%s", args, out)
	}
	if !strings.Contains(string(out), what) {
		t.Fatalf("meshsim %v: message does not name %s:\n%s", args, what, out)
	}
}

// writeTrace writes a native-format trace of the given job lines,
// after a header line, to a temporary file and returns its path.
func writeTrace(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.txt")
	body := "# arrival procs runtime\n" + strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestNonFiniteTraceExitsWithError replays traces with a NaN or
// infinite time field: meshsim used to finish them with a NaN or
// infinite clock and exit 0; each must fail, naming the line.
func TestNonFiniteTraceExitsWithError(t *testing.T) {
	for name, line := range map[string]string{
		"NaN runtime":      "1 4 NaN",
		"NaN arrival":      "NaN 4 10",
		"infinite runtime": "1 4 +Inf",
	} {
		t.Run(name, func(t *testing.T) {
			expectRejected(t, []string{"-workload", "trace", "-trace", writeTrace(t, line), "-jobs", "0",
				"-width", "8", "-length", "8"}, "trace line 2")
		})
	}
}

// TestNoMeasuredJobEncodesJSON runs meshsim -json on runs that measure
// no completed job — a horizon shorter than any job, and a faulted run
// whose failures kill every job. The 95th percentiles used to be NaN,
// which encoding/json rejects; they must read 0, as the means do.
func TestNoMeasuredJobEncodesJSON(t *testing.T) {
	for name, args := range map[string][]string{
		"short horizon":    {"-jobs", "0", "-duration", "10"},
		"every job killed": {"-jobs", "50", "-mtbf", "100000", "-mttr", "500"},
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], append(args, "-json")...)
			cmd.Env = append(os.Environ(), runEnv+"=1")
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("meshsim %v -json: %v\n%s", args, err, out)
			}
			var got struct{ Result sim.Result }
			if err := json.Unmarshal(out, &got); err != nil {
				t.Fatalf("meshsim %v -json: %v\n%s", args, err, out)
			}
			if r := got.Result; r.Completed != 0 || r.P95Wait != 0 || r.P95Turnaround != 0 {
				t.Fatalf("meshsim %v: completed %d, P95 wait %v, P95 turnaround %v; want 0, 0, 0",
					args, r.Completed, r.P95Wait, r.P95Turnaround)
			}
		})
	}
}

// TestZeroJobsWithDurationRuns pins the combination the -jobs check
// still allows: no job cap, bounded by the -duration horizon.
func TestZeroJobsWithDurationRuns(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-jobs", "0", "-duration", "20000", "-width", "8", "-length", "8")
	cmd.Env = append(os.Environ(), runEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("meshsim -jobs 0 -duration 20000: %v\n%s", err, out)
	}
}

// TestZeroJobsTraceDrains pins the other combination it allows: a
// trace is finite, so -jobs 0 replays the whole file and exits 0.
func TestZeroJobsTraceDrains(t *testing.T) {
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, fmt.Sprintf("%d %d %d", 100*i, 1+i%16, 50+i))
	}
	path := writeTrace(t, lines...)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-workload", "trace", "-trace", path,
		"-jobs", "0", "-warmup", "0", "-width", "8", "-length", "8", "-nummes", "1")
	cmd.Env = append(os.Environ(), runEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("meshsim -workload trace -jobs 0: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "completed jobs      40") {
		t.Fatalf("meshsim -workload trace -jobs 0 did not replay all 40 jobs:\n%s", out)
	}
}
