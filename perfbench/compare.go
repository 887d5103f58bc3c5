package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// compareMain prints, for every workload and end-to-end metric of two
// -suite results, both medians and quartiles, the ratio B/A and a
// verdict. It fails when a metric got worse by more than its bound, a
// digest differs, or a cell failed.
func compareMain(pathA, pathB string) error {
	a, err := loadSuite(pathA)
	if err != nil {
		return err
	}
	b, err := loadSuite(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A = %s (%s), B = %s (%s)\n", pathA, a.Label, pathB, b.Label)
	fmt.Printf("%-18s %-22s %12s %25s %12s %25s %7s  %s\n",
		"workload", "metric", "A value", "A q1 .. q3", "B value", "B q1 .. q3", "B/A", "verdict")
	bad := 0
	for _, wb := range b.Workloads {
		i := slices.IndexFunc(a.Workloads, func(w workloadResult) bool { return w.Name == wb.Name })
		if i < 0 {
			fmt.Printf("%-18s missing from A\n", wb.Name)
			bad++
			continue
		}
		wa := a.Workloads[i]
		if wa.Digest != wb.Digest {
			fmt.Printf("%-18s DIGEST MISMATCH: A %s, B %s\n", wb.Name, wa.Digest, wb.Digest)
			bad++
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Printf("%-18s FAILED CELLS: A %d, B %d\n", wb.Name, wa.Failed, wb.Failed)
			bad++
		}
		for _, mb := range wb.EndToEnd {
			j := slices.IndexFunc(wa.EndToEnd, func(s summary) bool { return s.Name == mb.Name })
			if j < 0 {
				fmt.Printf("%-18s %-22s missing from A\n", wb.Name, mb.Name)
				continue
			}
			ma := wa.EndToEnd[j]
			v := verdict(ma, mb)
			if v == "worse" {
				bad++
			}
			fmt.Printf("%-18s %-22s %12.5g %12.5g .. %-10.5g %12.5g %12.5g .. %-10.5g %7.3f  %s\n",
				wb.Name, mb.Name, ma.Value, ma.Q1, ma.Q3, mb.Value, mb.Q1, mb.Q3, ratio(mb.Value, ma.Value), v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions, digest mismatches or failures", bad)
	}
	return nil
}

func loadSuite(path string) (suiteResult, error) {
	var r suiteResult
	blob, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(blob, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict judges B against A for one metric, with A's bound. Spread is
// the distance between a side's quartiles over its reps.
//   - unresolved: the spread of either side is wider than the bound and
//     not every rep of one side beats every rep of the other;
//   - worse: B's value is worse than A's by more than the bound;
//   - better: B's value is better by more than the bound, or by more
//     than A's spread with every rep of B beating every rep of A;
//   - within bound otherwise.
func verdict(a, b summary) string {
	if a.Median == 0 || a.Value == 0 {
		return "unresolved"
	}
	sign := 1.0 // positive change is worse
	if a.Better == "higher" {
		sign = -1
	}
	worse := sign * (b.Value - a.Value) / a.Value
	spread := max(a.Q3-a.Q1, b.Q3-b.Q1) / a.Median
	bBeats, aBeats := beatsAll(b.Values, a.Values, sign), beatsAll(a.Values, b.Values, sign)
	switch {
	case spread > a.Bound && !bBeats && !aBeats:
		return "unresolved"
	case worse > a.Bound:
		return "worse"
	case -worse > a.Bound || (-worse > (a.Q3-a.Q1)/a.Median && bBeats):
		return "better"
	}
	return "within bound"
}

// beatsAll reports whether every value of x is better than every value
// of y; sign is +1 when lower is better.
func beatsAll(x, y []float64, sign float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	if sign > 0 {
		return slices.Max(x) < slices.Min(y)
	}
	return slices.Min(x) > slices.Max(y)
}
