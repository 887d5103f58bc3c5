// Command traceinfo summarises a workload trace: job count, arrival
// statistics (mean/CV — burstiness), size distribution (mean, power-of-
// two fraction, the property behind the paper's MBS result), runtime
// statistics, and the offered load the trace would impose on a mesh.
//
// It reads the native format by default and SWF with -swf, so the
// published SDSC Paragon file can be inspected directly. It reads one
// trace, from the file argument or else from stdin.
//
// Examples:
//
//	tracegen | traceinfo
//	traceinfo -swf SDSC-Par-1995-3.swf
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		swf   = flag.Bool("swf", false, "input is Standard Workload Format")
		meshW = flag.Int("width", 16, "mesh width for shape derivation")
		meshL = flag.Int("length", 22, "mesh length")
	)
	flag.Parse()

	switch {
	case *meshW < 1:
		fmt.Fprintf(os.Stderr, "traceinfo: -width %d is invalid; width must be at least 1\n", *meshW)
		os.Exit(1)
	case *meshL < 1:
		fmt.Fprintf(os.Stderr, "traceinfo: -length %d is invalid; length must be at least 1\n", *meshL)
		os.Exit(1)
	case flag.NArg() > 1:
		fmt.Fprintf(os.Stderr, "traceinfo: unexpected argument %q after the trace file %s; it reads one trace\n",
			flag.Arg(1), flag.Arg(0))
		os.Exit(1)
	}

	var in io.Reader = os.Stdin
	name := "stdin"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "traceinfo:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}

	read := workload.ReadTrace
	if *swf {
		read = workload.ReadSWF
	}
	jobs, err := read(in, *meshW, *meshL, 5, stats.NewStream(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
		os.Exit(1)
	}
	if len(jobs) == 0 {
		fmt.Fprintln(os.Stderr, "traceinfo: no usable jobs")
		os.Exit(1)
	}

	var inter, size, run stats.Accumulator
	for i, j := range jobs {
		if i > 0 {
			inter.Add(j.Arrival - jobs[i-1].Arrival)
		}
		size.Add(float64(j.Size()))
		run.Add(j.Compute)
	}
	cv := 0.0
	if inter.Mean() > 0 {
		cv = inter.Std() / inter.Mean()
	}
	offered := 0.0
	if inter.Mean() > 0 {
		offered = size.Mean() * run.Mean() / inter.Mean() / float64(*meshW**meshL)
	}

	fmt.Printf("trace               %s\n", name)
	fmt.Printf("jobs                %d\n", len(jobs))
	fmt.Printf("span                %.0f time units\n", jobs[len(jobs)-1].Arrival-jobs[0].Arrival)
	fmt.Printf("interarrival        mean %.1f, CV %.2f%s\n", inter.Mean(), cv, burstNote(cv))
	fmt.Printf("size                mean %.1f, min %.0f, max %.0f\n", size.Mean(), size.Min(), size.Max())
	fmt.Printf("power-of-two sizes  %.1f%%\n", 100*workload.FractionPowerOfTwoSizes(jobs))
	fmt.Printf("runtime             mean %.1f, max %.0f\n", run.Mean(), run.Max())
	fmt.Printf("offered load        %.2f of a %dx%d mesh (compute only)\n", offered, *meshW, *meshL)
}

func burstNote(cv float64) string {
	if cv > 1.05 {
		return " (bursty: CV > 1)"
	}
	if cv < 0.95 {
		return " (smoother than Poisson)"
	}
	return " (Poisson-like)"
}
