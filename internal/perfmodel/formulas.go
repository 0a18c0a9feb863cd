package perfmodel

import (
	"math"
	"time"
)

// The paper's evaluation formulas: parallel efficiency (Equation 1) and
// the average run time for a single computation on a single core
// (Equation 2), plus the summary statistics used in the variability
// study (Section 3).

// ParallelEfficiency implements Equation 1:
//
//	efficiency = T1 / (P × Tp)
//
// where T1 is the best sequential time for the workload, Tp the parallel
// run time, and P the number of cores.
func ParallelEfficiency(t1, tp time.Duration, p int) float64 {
	if p <= 0 || tp <= 0 {
		return 0
	}
	return float64(t1) / (float64(p) * float64(tp))
}

// PerCoreTime implements Equation 2: the average time a single
// computation (one input file) takes on one core,
//
//	t = Tp × P / N
//
// for N independent computations run on P cores in Tp wall time. The
// paper plots this to show "the actual performance a user can obtain".
func PerCoreTime(tp time.Duration, p, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(tp) * float64(p) / float64(n))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// CoefficientOfVariation returns StdDev/Mean as a percentage — the
// statistic of the paper's sustained-performance study (1.56% for AWS,
// 2.25% for Azure).
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return 100 * StdDev(xs) / m
}
