// Package stats provides the statistical substrate for the simulation
// study: seeded random streams with the distributions the paper uses,
// streaming moment accumulators, time-weighted integrals for utilization,
// Student-t confidence intervals, and an independent-replications
// controller implementing the paper's stopping rule (95 % confidence,
// relative error <= 5 %).
package stats

import (
	"fmt"
	"math"
)

// Accumulator computes streaming mean and variance using Welford's
// algorithm, which is numerically stable for long runs. The zero value is
// ready to use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Merge folds another accumulator's observations into a (parallel merge
// via Chan et al.'s pairwise update).
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	a.mean += delta * float64(b.n) / float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n = n
}

// N returns the observation count.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean, or 0 with no observations.
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance (n-1 denominator).
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest observation, or 0 with no observations.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation, or 0 with no observations.
func (a *Accumulator) Max() float64 { return a.max }

// Sum returns the running total of the observations.
func (a *Accumulator) Sum() float64 { return a.mean * float64(a.n) }

// Reset discards all observations.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// CI is a symmetric confidence interval around a sample mean.
type CI struct {
	Mean float64 // point estimate
	Half float64 // half-width of the interval
	N    int     // number of observations behind the estimate
}

// RelErr returns the relative error Half/|Mean|, the paper's stopping
// statistic. It returns +Inf when the mean is zero and the half-width is
// not, and 0 when both are zero (a degenerate but converged estimate).
func (c CI) RelErr() float64 {
	if c.Mean == 0 {
		if c.Half == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return c.Half / math.Abs(c.Mean)
}

// Lo returns the interval's lower bound.
func (c CI) Lo() float64 { return c.Mean - c.Half }

// Hi returns the interval's upper bound.
func (c CI) Hi() float64 { return c.Mean + c.Half }

// String renders the interval as "mean ± half (n=N)".
func (c CI) String() string {
	return fmt.Sprintf("%.4g ± %.3g (n=%d)", c.Mean, c.Half, c.N)
}

// CI95 returns the 95 % Student-t confidence interval for the mean of the
// observations folded into a. With fewer than two observations the
// half-width is infinite.
func (a *Accumulator) CI95() CI {
	if a.n < 2 {
		return CI{Mean: a.mean, Half: math.Inf(1), N: int(a.n)}
	}
	t := TQuantile95(int(a.n) - 1)
	half := t * a.Std() / math.Sqrt(float64(a.n))
	return CI{Mean: a.mean, Half: half, N: int(a.n)}
}

// tTable holds two-sided 95 % Student-t critical values for small degrees
// of freedom; beyond the table the normal approximation is close enough.
var tTable = [...]float64{
	// df: 1 .. 30
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TQuantile95 returns the two-sided 95 % critical value of the Student-t
// distribution with df degrees of freedom.
func TQuantile95(df int) float64 {
	switch {
	case df <= 0:
		return math.Inf(1)
	case df <= len(tTable):
		return tTable[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

// TimeWeighted integrates a piecewise-constant signal over simulation
// time, e.g. the number of busy processors, to produce time-averaged
// statistics such as mean utilization.
type TimeWeighted struct {
	started  bool
	lastT    float64
	lastV    float64
	area     float64
	duration float64
}

// Observe records that the signal changed to v at time t. Time must be
// nondecreasing across calls.
func (w *TimeWeighted) Observe(t, v float64) {
	if w.started {
		if t < w.lastT {
			panic(fmt.Sprintf("stats: time went backwards: %v after %v", t, w.lastT))
		}
		dt := t - w.lastT
		w.area += w.lastV * dt
		w.duration += dt
	}
	w.started = true
	w.lastT = t
	w.lastV = v
}

// Finish closes the integral at time t without changing the signal.
func (w *TimeWeighted) Finish(t float64) { w.Observe(t, w.lastV) }

// Mean returns the time average of the signal, or 0 over an empty span.
func (w *TimeWeighted) Mean() float64 {
	if w.duration == 0 {
		return 0
	}
	return w.area / w.duration
}

// Duration returns the total span integrated so far.
func (w *TimeWeighted) Duration() float64 { return w.duration }

// Reset discards the integral.
func (w *TimeWeighted) Reset() { *w = TimeWeighted{} }
