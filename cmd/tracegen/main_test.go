package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runEnv marks a child process of the test binary that runs tracegen's
// main with the child's arguments instead of the tests.
const runEnv = "TRACEGEN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTracegen runs the test binary as tracegen with args.
func runTracegen(t *testing.T, args ...string) ([]byte, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runEnv+"=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("tracegen %v did not terminate within the deadline", args)
	}
	return out, err
}

// TestInvalidFlagsExitWithError runs tracegen on flag values that used
// to panic or write NaN arrival times: each must exit non-zero, without
// a panic, naming the offending flag.
func TestInvalidFlagsExitWithError(t *testing.T) {
	cases := []struct {
		name string
		args []string
		flag string
	}{
		{"zero jobs", []string{"-jobs", "0"}, "-jobs"},
		{"negative jobs", []string{"-jobs", "-3"}, "-jobs"},
		{"zero width", []string{"-width", "0"}, "-width"},
		{"negative width", []string{"-width", "-1"}, "-width"},
		{"zero length", []string{"-length", "0"}, "-length"},
		{"zero interarrival", []string{"-interarrival", "0"}, "-interarrival"},
		{"negative interarrival", []string{"-interarrival", "-1"}, "-interarrival"},
		{"NaN interarrival", []string{"-interarrival", "NaN"}, "-interarrival"},
		{"infinite interarrival", []string{"-interarrival", "+Inf"}, "-interarrival"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := runTracegen(t, c.args...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("tracegen %v: want a non-zero exit, got %v\n%s", c.args, err, out)
			}
			if strings.Contains(string(out), "panic") {
				t.Fatalf("tracegen %v panicked:\n%s", c.args, out)
			}
			if !strings.Contains(string(out), c.flag) {
				t.Fatalf("tracegen %v: message does not name %s:\n%s", c.args, c.flag, out)
			}
		})
	}
}

// TestValidFlagsWriteTrace pins that the checks leave valid flags
// alone: a small trace is written with one line per job.
func TestValidFlagsWriteTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.trace")
	if out, err := runTracegen(t, "-jobs", "5", "-width", "1", "-length", "1", "-out", path); err != nil {
		t.Fatalf("tracegen: %v\n%s", err, out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 6 { // header plus five jobs
		t.Fatalf("trace has %d lines, want 6:\n%s", len(lines), b)
	}
}
