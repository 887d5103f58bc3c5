// Command perfbench is the repository's benchmark: four workloads drawn
// from the paper's question (how real and stochastic workloads change
// allocation and scheduling on a 2D mesh) and from the layers the
// simulator is built of. README.md describes the workloads, the
// metrics and their bounds. Run it from the repository root through
// run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper_stochastic --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh -suite -reps 5 -o results.json
//	bash perfbench/run.sh -compare a.json b.json
//
// The first form measures one workload for a number of seconds and
// prints its end-to-end metrics (-trace 0) or per-layer metrics
// (-trace 1); its last output line is one JSON object. The second runs
// every workload, reps interleaved round-robin, then one traced rep of
// each. The third compares two suite results metric by metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"time"
)

const (
	// minReps is the fewest reps a run takes, however short its window.
	minReps = 3
	// runBudget bounds one measured run, children included.
	runBudget = 170 * time.Second
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to measure")
		seed     = flag.Int64("seed", 1, "seed the workload inputs are drawn from")
		seconds  = flag.Float64("seconds", 20, "how long to measure")
		traceOn  = flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
		work     = flag.String("work", ".bench_build/work", "scratch directory for inputs")
		suite    = flag.Bool("suite", false, "run every workload, reps interleaved, then one traced rep of each")
		reps     = flag.Int("reps", 5, "reps per workload in -suite")
		label    = flag.String("label", "", "label recorded in the -suite result")
		out      = flag.String("o", "", "write the -suite result to this JSON file")
		traceOut = flag.String("trace-out", "", "write the traced reps' spans to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -suite results: -compare A.json B.json")
		pins     = flag.Bool("write-pins", false, "print pins.json for the current code")

		child   = flag.Bool("child", false, "run one rep and print it (used by the benchmark itself)")
		short   = flag.Bool("short", false, "child: the small size the pins and tests use")
		input   = flag.String("input", "", "child: directory of prepared inputs")
		traced  = flag.Bool("traced", false, "child: profile the rep and record spans")
		workers = flag.Int("workers", 0, "child: sharded search workers")
	)
	flag.Parse()

	var err error
	switch {
	case *child:
		err = childMain(*name, *seed, *short, *input, repOptions{traced: *traced, workers: *workers})
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result files")
		} else {
			err = compareMain(flag.Arg(0), flag.Arg(1))
		}
	default:
		var s *session
		if s, err = newSession(*work); err != nil {
			break
		}
		switch {
		case *suite:
			err = suiteMain(s, *seed, *reps, *label, *out, *traceOut)
		case *pins:
			err = writePins(s)
		case *name == "":
			err = errors.New("give -workload, -suite or -compare")
		default:
			err = benchMain(s, *name, *seed, *seconds, *traceOn == 1, *traceOut)
		}
		s.close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func childMain(name string, seed int64, short bool, input string, opt repOptions) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	rep, err := runRep(w.cells(seed, short, input), opt)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// benchMain measures one workload at one seed for about seconds and
// prints the result line.
func benchMain(s *session, name string, seed int64, seconds float64, traced bool, traceOut string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	r, err := s.newRun(ctx, w, seed)
	if err != nil {
		return err
	}
	window := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for len(r.reps) < minReps || (!traced && time.Since(start)+last <= window) {
		if last, err = s.measure(ctx, r); err != nil {
			return err
		}
	}
	res := result{Metrics: map[string]valueUnit{}}
	if traced {
		if err := s.trace(ctx, r); err != nil {
			return err
		}
		pv, err := runProbes()
		if err != nil {
			return err
		}
		lm := r.layerMetrics(pv)
		printLayers(r, lm)
		for _, m := range perLayer {
			res.Metrics[m.Name] = valueUnit{lm[m.Name], m.Unit}
		}
		if err := writeSpans(traceOut, []*run{r}); err != nil {
			return err
		}
	} else {
		sums := summarize(r.reps)
		printSummaries(w.name, sums)
		printKernel(w.name, r.kernelMs())
		for _, m := range sums {
			res.Metrics[m.Name] = valueUnit{m.Value, m.Unit}
		}
	}
	res.Attempted, res.Failed = r.t.attempted, r.t.failed
	res.Correct = r.t.failed == 0
	for _, p := range r.t.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", p)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// suiteResult is the -suite JSON file.
type suiteResult struct {
	Label     string           `json:"label"`
	Go        string           `json:"go"`
	Cores     int              `json:"cores"`
	Seed      int64            `json:"seed"`
	Reps      int              `json:"reps"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name        string             `json:"name"`
	Digest      string             `json:"digest"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Problems    []string           `json:"problems,omitempty"`
	EndToEnd    []summary          `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer"`
	CellSeconds map[string]float64 `json:"cell_s"`
	// KernelMs is the median time of the reference kernel the timings
	// are scaled by (hostspeed.go).
	KernelMs float64 `json:"kernel_ms"`
}

// suiteMain runs every workload with its reps interleaved round-robin,
// so host drift spreads evenly over the workloads, then one traced rep
// of each and the probes.
func suiteMain(s *session, seed int64, reps int, label, out, traceOut string) error {
	ctx := context.Background()
	var runs []*run
	for i := range workloads {
		r, err := s.newRun(ctx, &workloads[i], seed)
		if err != nil {
			return err
		}
		runs = append(runs, r)
	}
	for i := 0; i < reps; i++ {
		for _, r := range runs {
			if _, err := s.measure(ctx, r); err != nil {
				return err
			}
		}
	}
	for _, r := range runs {
		if err := s.trace(ctx, r); err != nil {
			return err
		}
	}
	pv, err := runProbes()
	if err != nil {
		return err
	}
	res := suiteResult{Label: label, Go: runtime.Version(), Cores: runtime.GOMAXPROCS(0), Seed: seed, Reps: reps}
	failed := 0
	for _, r := range runs {
		wr := workloadResult{Name: r.w.name, Digest: r.digest(), Attempted: r.t.attempted, Failed: r.t.failed,
			Problems: r.t.problems, EndToEnd: summarize(r.reps), PerLayer: r.layerMetrics(pv), CellSeconds: r.cellSeconds(),
			KernelMs: r.kernelMs()}
		printSummaries(wr.Name, wr.EndToEnd)
		printKernel(wr.Name, wr.KernelMs)
		printLayers(r, wr.PerLayer)
		res.Workloads = append(res.Workloads, wr)
		failed += wr.Failed
		for _, p := range wr.Problems {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED", p)
		}
	}
	if out != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := writeSpans(traceOut, runs); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d cells failed", failed)
	}
	return nil
}

// writePins prints pins.json: the digests of every cell at the pinned
// seed, short and full size.
func writePins(s *session) error {
	ctx := context.Background()
	p := pinSet{Seed: s.pins.Seed, Short: map[string]map[string]string{}, Full: map[string]map[string]string{}}
	for i := range workloads {
		w := &workloads[i]
		for _, short := range []bool{true, false} {
			dir, err := s.inputs(w, p.Seed, short)
			if err != nil {
				return err
			}
			r, err := s.rep(ctx, w, p.Seed, short, dir, repOptions{})
			if err != nil {
				return err
			}
			for _, c := range r.Cells {
				if c.Err != "" {
					return fmt.Errorf("%s %s: %s", w.name, c.Name, c.Err)
				}
			}
			m := p.Full
			if short {
				m = p.Short
			}
			m[w.name] = cellDigests(r)
		}
	}
	blob, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", blob)
	return err
}

func printSummaries(workload string, sums []summary) {
	fmt.Printf("%-18s %-22s %-5s %13s %13s %13s %13s %3s\n", "workload", "metric", "unit", "value", "median", "q1", "q3", "n")
	for _, m := range sums {
		fmt.Printf("%-18s %-22s %-5s %13.6g %13.6g %13.6g %13.6g %3d\n", workload, m.Name, m.Unit, m.Value, m.Median, m.Q1, m.Q3, m.N)
	}
}

func printKernel(workload string, ms float64) {
	fmt.Printf("%-18s %-22s %-5s %13.6g   timings scaled by %g ms over this\n", workload, "host.kernel_ms", "ms", ms, refKernelNs/1e6)
}

func printLayers(r *run, lm map[string]float64) {
	for _, m := range perLayer {
		fmt.Printf("%-18s %-34s %-6s %14.6g\n", r.w.name, m.Name, m.Unit, lm[m.Name])
	}
	cs := r.cellSeconds()
	for _, n := range slices.Sorted(maps.Keys(cs)) {
		fmt.Printf("%-18s %-34s %-6s %14.6g\n", r.w.name, "sim.cell_s."+n, "s", cs[n])
	}
}

// writeSpans writes the traced reps' spans, one list per workload.
func writeSpans(path string, runs []*run) error {
	if path == "" {
		return nil
	}
	spans := map[string][]span{}
	for _, r := range runs {
		if r.traced != nil {
			spans[r.w.name] = r.traced.Spans
		}
	}
	blob, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
