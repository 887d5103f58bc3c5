package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
// that used to panic or never terminate: each must exit non-zero
// within the deadline, without a panic, naming the offending flag.
func TestInvalidRunFlagsExitWithError(t *testing.T) {
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
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), runEnv+"=1")
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("meshsim %v did not terminate within the deadline", c.args)
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("meshsim %v: want a non-zero exit, got %v\n%s", c.args, err, out)
			}
			if strings.Contains(string(out), "panic") {
				t.Fatalf("meshsim %v panicked:\n%s", c.args, out)
			}
			if !strings.Contains(string(out), c.flag) {
				t.Fatalf("meshsim %v: message does not name %s:\n%s", c.args, c.flag, out)
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
		"-jobs", "0", "-duration", "20000", "-width", "8", "-length", "8", "-nummes", "1")
	cmd.Env = append(os.Environ(), runEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("meshsim -jobs 0 -duration 20000: %v\n%s", err, out)
	}
}

// TestZeroJobsTraceDrains pins the other combination it allows: a
// trace is finite, so -jobs 0 replays the whole file and exits 0.
func TestZeroJobsTraceDrains(t *testing.T) {
	var trace strings.Builder
	trace.WriteString("# arrival procs runtime\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&trace, "%d %d %d\n", 100*i, 1+i%16, 50+i)
	}
	path := filepath.Join(t.TempDir(), "jobs.txt")
	if err := os.WriteFile(path, []byte(trace.String()), 0o644); err != nil {
		t.Fatal(err)
	}
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
