package workload

import (
	"math"

	"repro/internal/stats"
)

// ParagonSpec describes the synthetic SDSC Intel Paragon trace model.
// The defaults reproduce the statistics the paper reports for the real
// trace: 10658 jobs from the 352-node partition, mean inter-arrival
// 1186.7 seconds, mean size 34.5 nodes with the distribution favouring
// non-powers of two. Runtimes follow a bursty two-phase hyper-
// exponential (heavy-tailed, CV > 1), which is what makes SSD
// scheduling profitable on real traces.
type ParagonSpec struct {
	Jobs             int     // number of jobs (paper: 10658)
	MeshW, MeshL     int     // partition geometry (16 x 22 = 352 nodes)
	MeanInterarrival float64 // seconds (paper: 1186.7)
	NumMes           float64 // mean per-processor message count (paper: 5)
}

// DefaultParagon returns the published trace statistics.
func DefaultParagon() ParagonSpec {
	return ParagonSpec{
		Jobs:             10658,
		MeshW:            16,
		MeshL:            22,
		MeanInterarrival: 1186.7,
		NumMes:           5,
	}
}

// burstFraction and burstMean shape the hyper-exponential arrival
// process: a fraction of arrivals come in tight bursts (daytime
// submission clumps), the rest in long lulls, preserving the overall
// mean while pushing the coefficient of variation above 1 as observed
// in production traces (Windisch et al., Frontiers'96).
const (
	burstFraction = 0.7
	burstMeanFrac = 0.25 // burst-phase mean as a fraction of overall
)

// SyntheticParagon generates the synthetic trace deterministically from
// the seed. Jobs are returned in arrival order with shapes derived by
// ShapeFor. It is the materialized view of ParagonSource — collecting
// the stream is how the slice is built, so the two are bit-identical
// by construction (the streaming determinism gate, docs §12).
func SyntheticParagon(spec ParagonSpec, seed int64) []Job {
	return Collect(NewParagonSource(spec, seed), 0)
}

// paragonSize draws a processor count with mean ~34.5 favouring
// non-powers of two: a three-band mixture (small interactive jobs,
// mid-size production jobs, occasional large runs) with power-of-two
// draws nudged off the power (the paper's stated trace property, and
// the cause of MBS's degradation under the real workload).
func paragonSize(rng *stats.Stream, maxP int) int {
	var p int
	switch u := rng.Float64(); {
	case u < 0.61:
		p = rng.UniformInt(1, 16)
	case u < 0.89:
		p = rng.UniformInt(17, 64)
	default:
		p = rng.UniformInt(65, 256)
	}
	if p > 2 && isPowerOfTwo(p) && rng.Float64() < 0.75 {
		// Nudge off the power of two, preferring +1 (e.g. 33, 65).
		if p < maxP {
			p++
		} else {
			p--
		}
	}
	if p > maxP {
		p = maxP
	}
	return p
}

func isPowerOfTwo(p int) bool { return p > 0 && p&(p-1) == 0 }

// paragonRuntime draws a compute demand in seconds: hyper-exponential
// with mean ~780 s and a heavy tail (15 % of jobs average ~3500 s).
func paragonRuntime(rng *stats.Stream) float64 {
	r := rng.HyperExp(0.85, 300, 3500)
	// Floor at one second: zero-length trace records are dropped by
	// trace readers and never generated here.
	return math.Max(r, 1)
}

// FractionPowerOfTwoSizes reports the fraction of jobs whose processor
// count is a power of two — a diagnostic for the "favours non-powers
// of two" trace property.
func FractionPowerOfTwoSizes(jobs []Job) float64 {
	if len(jobs) == 0 {
		return 0
	}
	n := 0
	for _, j := range jobs {
		if isPowerOfTwo(j.Size()) {
			n++
		}
	}
	return float64(n) / float64(len(jobs))
}

// MeanSize returns the average processor count of the jobs.
func MeanSize(jobs []Job) float64 {
	if len(jobs) == 0 {
		return 0
	}
	s := 0
	for _, j := range jobs {
		s += j.Size()
	}
	return float64(s) / float64(len(jobs))
}
