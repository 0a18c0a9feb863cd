// Package harness is the measuring equipment of the end-to-end
// benchmark (bench/e2e): the deployment shapes assembled from the
// repo's public constructors, the queue.API timing interposer, the span
// recorder and its self-time arithmetic, the machine-speed calibration,
// the summary statistics, and the result files with their before/after
// comparison. It measures
// every layer from outside — nothing here reaches into an internal
// package's unexported state.
package harness

import (
	"math"
	"sort"
	"time"
)

// Summary is min/median/max over the repetitions of one metric.
type Summary struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// Summarize reduces repetition values to their Summary. An empty input
// yields the zero Summary.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := sorted(values)
	return Summary{Min: s[0], Median: quantileSorted(s, 0.5), Max: s[len(s)-1], N: len(s)}
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates linearly between order statistics.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is the 0.5 quantile of values (0 for an empty input).
func Median(values []float64) float64 { return Summarize(values).Median }

// Mean is the arithmetic mean of values (0 for an empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// tailCandidates are the tail percentiles a timing may be reported at,
// highest first, each with the share of samples beyond it per mille.
var tailCandidates = []struct {
	percentile float64
	beyond     int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}}

// Timing is a latency distribution reported by the benchmark's
// percentile rule: the median plus the highest candidate percentile
// that still has at least ten samples beyond it, with the sample count
// stated. TailPercentile is 0 when even p90 is unsupported (fewer than
// 100 samples); Tail then repeats the maximum so the field is never
// silently a median.
type Timing struct {
	N              int     `json:"n"`
	Median         float64 `json:"median"`
	TailPercentile float64 `json:"tail_percentile"`
	Tail           float64 `json:"tail"`
}

// TailPercentile picks the percentile the rule allows for n samples.
func TailPercentile(n int) float64 {
	for _, c := range tailCandidates {
		if n*c.beyond >= 10*1000 {
			return c.percentile
		}
	}
	return 0
}

// TimingOf applies the percentile rule to raw durations, reporting in
// the given unit (time.Millisecond, time.Microsecond, …).
func TimingOf(samples []time.Duration, unit time.Duration) Timing {
	if len(samples) == 0 {
		return Timing{}
	}
	vals := make([]float64, len(samples))
	for i, d := range samples {
		vals[i] = float64(d) / float64(unit)
	}
	sort.Float64s(vals)
	t := Timing{N: len(vals), Median: quantileSorted(vals, 0.5), TailPercentile: TailPercentile(len(vals))}
	if t.TailPercentile == 0 {
		t.Tail = vals[len(vals)-1]
	} else {
		t.Tail = quantileSorted(vals, t.TailPercentile/100)
	}
	return t
}

// Spread is the distance between the first and third quartile as a
// share of the median — the run-to-run variation figure recorded beside
// every end-to-end metric. Quartiles follow Python's
// statistics.quantiles(values, n=4) (exclusive method), which is what
// the acceptance driver computes.
func Spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := sorted(values)
	q := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	med := quantileSorted(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
