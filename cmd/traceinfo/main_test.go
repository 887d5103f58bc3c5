package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runEnv marks a child process of the test binary that runs traceinfo's
// main with the child's arguments instead of the tests.
const runEnv = "TRACEINFO_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// trace is a 20-job Paragon-model trace written by
// `tracegen -jobs 20 -seed 42`.
const trace = "testdata/paragon20.trace"

// runTraceinfo runs the test binary as traceinfo with args.
func runTraceinfo(t *testing.T, args ...string) ([]byte, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runEnv+"=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("traceinfo %v did not terminate within the deadline", args)
	}
	return out, err
}

// TestInvalidArgsExitWithError runs traceinfo on mesh sides below 1 and
// on a second file argument: each must exit non-zero, without a panic,
// naming the offending flag or argument rather than blaming the trace.
func TestInvalidArgsExitWithError(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero width", []string{"-width", "0", trace}, "-width 0 is invalid"},
		{"negative width", []string{"-width", "-3", trace}, "-width -3 is invalid"},
		{"zero length", []string{"-length", "0", trace}, "-length 0 is invalid"},
		{"negative length", []string{"-length", "-2", trace}, "-length -2 is invalid"},
		{"extra argument", []string{trace, "EXTRA"}, `"EXTRA"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := runTraceinfo(t, c.args...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("traceinfo %v: want a non-zero exit, got %v\n%s", c.args, err, out)
			}
			if strings.Contains(string(out), "panic") {
				t.Fatalf("traceinfo %v panicked:\n%s", c.args, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("traceinfo %v: message does not say %s:\n%s", c.args, c.want, out)
			}
		})
	}
}

// TestSummarisesTracegenTrace pins that the checks leave a valid run
// alone: the tracegen trace is summarised, all 20 jobs of it.
func TestSummarisesTracegenTrace(t *testing.T) {
	out, err := runTraceinfo(t, "-width", "16", "-length", "22", trace)
	if err != nil {
		t.Fatalf("traceinfo: %v\n%s", err, out)
	}
	for _, want := range []string{"jobs                20\n", "of a 16x22 mesh"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}
