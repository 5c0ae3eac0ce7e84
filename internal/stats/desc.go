// Package stats provides the descriptive-statistics toolkit used across
// the reproduction: means, deviations, fluctuation ratios (sigma/mu),
// empirical CDFs, percentiles, histograms, and lightweight ASCII
// rendering for regenerating the paper's figures on a terminal.
//
// The paper groups users by the fluctuation ratio sigma/mu of their
// demand series (Fig. 2) and reports cost distributions as CDFs
// (Figs. 3 and 4); this package implements exactly those primitives.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty data set")

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean[T ~int | ~float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the sum of xs using Kahan compensated summation so that
// long hourly cost series (tens of thousands of terms) do not drift.
func Sum[T ~int | ~float64](xs []T) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := float64(x) - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance[T ~int | ~float64](xs []T) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mu := Mean(xs)
	var acc float64
	for _, x := range xs {
		d := float64(x) - mu
		acc += d * d
	}
	return acc / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev[T ~int | ~float64](xs []T) float64 {
	return math.Sqrt(Variance(xs))
}

// FluctuationRatio returns sigma/mu, the paper's measure of demand
// fluctuation (Fig. 2). It returns +Inf when the mean is zero but the
// deviation is not, and 0 for an all-zero or empty series. An integer
// series is read in place, bit-identical to its float64 copy.
func FluctuationRatio[T ~int | ~float64](xs []T) float64 {
	mu := Mean(xs)
	sigma := StdDev(xs)
	if mu == 0 {
		if sigma == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return sigma / mu
}

// MinMax returns the smallest and largest values in xs.
// It returns ErrEmpty when xs is empty.
func MinMax(xs []float64) (minV, maxV float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	minV, maxV = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
	}
	return minV, maxV, nil
}

// Percentile returns the q-th percentile (q in [0,100]) of xs using
// linear interpolation between closest ranks. It returns ErrEmpty when
// xs is empty and an error when q is out of range.
func Percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := q / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Normalize divides every element of xs by base and returns the result
// as a new slice. The paper normalizes every algorithm's cost to the
// Keep-Reserved baseline this way. Normalize returns an error when base
// is zero or not finite.
func Normalize(xs []float64, base float64) ([]float64, error) {
	if base == 0 || math.IsNaN(base) || math.IsInf(base, 0) {
		return nil, errors.New("stats: normalization base must be finite and non-zero")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / base
	}
	return out, nil
}

// FractionBelow returns the fraction of xs strictly below the threshold.
// The paper reports results like "more than 60% of users reduce their
// costs", i.e. the fraction of normalized costs below 1.0.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var n int
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionAbove returns the fraction of xs strictly above the threshold.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var n int
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
