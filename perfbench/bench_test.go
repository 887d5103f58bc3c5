package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestShortRepsRepeatAndMatchPins runs every workload at the short size
// twice, the second time traced, and checks that both give the pinned
// digests: tracing must not change what a run computes.
func TestShortRepsRepeatAndMatchPins(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			if w.prepare != nil {
				if err := w.prepare(pins.Seed, true, dir); err != nil {
					t.Fatal(err)
				}
			}
			want := pins.want(w, pins.Seed, true)
			for _, opt := range []repOptions{{}, {traced: true}} {
				rep, err := runRep(w.cells(pins.Seed, true, dir), opt)
				if err != nil {
					t.Fatal(err)
				}
				var tl tally
				tl.add("rep", rep, want)
				if tl.failed != 0 || want == nil {
					t.Fatalf("traced=%v: %d failed cells, pinned %v: %v", opt.traced, tl.failed, want != nil, tl.problems)
				}
				if opt.traced {
					for l := range rep.ProfileNs {
						if !slices.Contains(profiledLayers, l) {
							t.Errorf("profile charged unknown layer %q", l)
						}
					}
				}
			}
		})
	}
}

// TestMalformedTraceFailsCell feeds a trace that turns malformed half
// way through to a drain run. The timing Source must forward the
// reader's error, so the cell fails and counts as failed instead of
// ending as a clean drain.
func TestMalformedTraceFailsCell(t *testing.T) {
	var b strings.Builder
	b.WriteString("# arrival procs runtime\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "%d %d %d\n", 100*i, 1+i%32, 50)
		if i == 50 {
			b.WriteString("12x 4 oops\n")
		}
	}
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.MaxCompleted = 0 // drain the stream
	c := cell{name: "bad", cfg: cfg, comm: true, source: func() (workload.Source, error) {
		return workload.OpenTraceSource(path, paperW, paperL, numMes, stats.NewStream(1), 0)
	}}
	rep, err := runRep([]cell{c}, repOptions{traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Cells[0].Err; !strings.Contains(got, "line 53") {
		t.Fatalf("cell error = %q, want the malformed line 53 reported", got)
	}
	var tl tally
	tl.add("rep", rep, nil)
	if tl.attempted != 1 || tl.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 1 and 1", tl.attempted, tl.failed)
	}
}

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json names exactly
// the workloads and metrics the code emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var spec struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricDef     `json:"end_to_end"`
		PerLayer   []metricDef     `json:"per_layer"`
	}
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []workloadEntry
	for _, w := range workloads {
		wl = append(wl, workloadEntry{w.name, w.why})
	}
	for _, d := range []struct {
		what      string
		got, want any
	}{
		{"command", spec.Command, []string{"bash", "perfbench/run.sh"}},
		{"paths", spec.Paths, []string{"perfbench"}},
		{"workloads", spec.Workloads, wl},
		{"end_to_end", spec.EndToEnd, endToEnd},
		{"per_layer", spec.PerLayer, perLayer},
	} {
		if !reflect.DeepEqual(d.got, d.want) {
			want, _ := json.MarshalIndent(d.want, "", "  ")
			t.Errorf("BENCHMARK.json %s differs from the code; the code has\n%s", d.what, want)
		}
	}
	var bound float64
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			bound = m.Bound
		}
	}
	for _, m := range endToEnd {
		if m.Bound > bound {
			t.Errorf("%s bound %v exceeds setup_s bound %v", m.Name, m.Bound, bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestFasterHalfMedian(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := fasterHalfMedian(v, "higher"); got != 4 {
		t.Errorf("higher: %v, want 4 (median of 3, 4, 5)", got)
	}
	if got := fasterHalfMedian(v, "lower"); got != 2 {
		t.Errorf("lower: %v, want 2 (median of 1, 2, 3)", got)
	}
}

func TestVerdict(t *testing.T) {
	sum := func(better string, v ...float64) summary {
		s := summary{metricDef: metricDef{Better: better, Bound: 0.1}, Values: v}
		s.Q1, s.Median, s.Q3 = quartiles(v)
		s.Value = s.Median
		return s
	}
	for _, c := range []struct {
		a, b summary
		want string
	}{
		{sum("higher", 100, 101, 102, 103, 104), sum("higher", 99, 100, 102, 104, 105), "within bound"},
		{sum("higher", 100, 101, 102, 103, 104), sum("higher", 80, 81, 82, 83, 84), "worse"},
		{sum("lower", 100, 101, 102, 103, 104), sum("lower", 80, 81, 82, 83, 84), "better"},
		{sum("lower", 100, 101, 102, 103, 104), sum("lower", 95, 96, 97, 97, 98), "better"},
		{sum("lower", 60, 80, 100, 120, 140), sum("lower", 70, 90, 110, 130, 150), "unresolved"},
	} {
		if got := verdict(c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a.Values, c.b.Values, got, c.want)
		}
	}
}
