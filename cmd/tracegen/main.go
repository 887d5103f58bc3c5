// Command tracegen emits a synthetic SDSC Paragon workload trace in the
// native "arrival procs runtime" format (workload.ParagonSpec documents
// the statistical model). With -depth above 1 each job's processors are
// redistributed into a cuboid request and the four-field
// "arrival procs runtime depth" form is written. The
// output feeds meshsim -workload trace or any external tool.
//
// Examples:
//
//	tracegen -jobs 10658 -seed 42 -out paragon.trace
//	tracegen -jobs 2000 -width 16 -length 16 -depth 4 -out cuboid.trace
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		out   = flag.String("out", "-", "output file (- for stdout)")
		jobs  = flag.Int("jobs", 10658, "number of jobs")
		seed  = flag.Int64("seed", 42, "generator seed")
		meshW = flag.Int("width", 16, "mesh width (caps job sizes)")
		meshL = flag.Int("length", 22, "mesh length")
		meshH = flag.Int("depth", 1, "mesh depth; above 1 reshapes jobs into cuboids and emits the depth column")
		meanI = flag.Float64("interarrival", 1186.7, "mean inter-arrival time, seconds")
	)
	flag.Parse()

	switch {
	case *jobs <= 0:
		fmt.Fprintf(os.Stderr, "tracegen: -jobs %d is invalid; the trace needs at least one job\n", *jobs)
		os.Exit(1)
	case *meshW <= 0:
		fmt.Fprintf(os.Stderr, "tracegen: -width %d is invalid; width must be at least 1\n", *meshW)
		os.Exit(1)
	case *meshL <= 0:
		fmt.Fprintf(os.Stderr, "tracegen: -length %d is invalid; length must be at least 1\n", *meshL)
		os.Exit(1)
	case *meshH < 1:
		fmt.Fprintf(os.Stderr, "tracegen: -depth %d is invalid; depth must be at least 1\n", *meshH)
		os.Exit(1)
	case !(*meanI > 0) || math.IsInf(*meanI, 1):
		// The negated comparison also rejects NaN.
		fmt.Fprintf(os.Stderr, "tracegen: -interarrival %g is invalid; the mean inter-arrival time must be positive and finite\n", *meanI)
		os.Exit(1)
	}
	spec := workload.DefaultParagon()
	spec.Jobs = *jobs
	spec.MeshW, spec.MeshL = *meshW, *meshL
	spec.MeanInterarrival = *meanI
	// Fully streaming pipeline: generate → deepen → write, one job in
	// flight at a time, so -jobs 100000000 needs no more memory than
	// -jobs 100. The wrappers draw in the same per-job order as the old
	// materialized SyntheticParagon + DeepenTrace pipeline, so the
	// emitted trace is byte-identical for the same seed.
	src := workload.NewDeepened(workload.NewParagonSource(spec, *seed),
		*meshW, *meshL, *meshH, stats.NewStream(*seed+1))

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	sum, err := workload.WriteTraceStream(w, src, *meshH > 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d jobs, mean interarrival %.1f, mean size %.1f, power-of-two fraction %.3f\n",
		sum.Jobs, sum.MeanInterarrival, sum.MeanSize, sum.PowerOfTwoFraction)
}
