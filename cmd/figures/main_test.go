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

// runEnv marks a child process of the test binary that runs figures'
// main with the child's arguments instead of the tests.
const runEnv = "FIGURES_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInvalidThinkExitsWithError runs figures with -think values that
// used to panic inside the first simulation: each must exit non-zero
// before any run, without a panic, naming -think.
func TestInvalidThinkExitsWithError(t *testing.T) {
	for _, think := range []string{"-1", "NaN"} {
		t.Run(think, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			args := []string{"-fig", "fig02", "-quick", "-jobs", "20", "-think", think}
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), runEnv+"=1")
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("figures %v did not terminate within the deadline", args)
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("figures %v: want a non-zero exit, got %v\n%s", args, err, out)
			}
			if strings.Contains(string(out), "panic") {
				t.Fatalf("figures %v panicked:\n%s", args, out)
			}
			if !strings.Contains(string(out), "-think") {
				t.Fatalf("figures %v: message does not name -think:\n%s", args, out)
			}
		})
	}
}
