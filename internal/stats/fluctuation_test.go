package stats_test

import (
	"fmt"
	"math"
	"testing"

	"rimarket/internal/stats"
	"rimarket/internal/workload"
)

// TestFluctuationRatioIntMatchesFloat pins the integer instantiation
// to the float64 one bit for bit, so a demand series needs no float
// copy. Up to magnitudes summing to 2^53 the integer series takes its
// sum exactly in integers, which Kahan summation of the float64 copy
// also reaches; beyond that it falls back to Kahan summation itself.
func TestFluctuationRatioIntMatchesFloat(t *testing.T) {
	near := math.MaxInt32         // 2^31 - 1: fits int on every platform
	beyond := math.MaxInt>>10 + 2 // 2^53 + 1 where int has 64 bits
	type series struct {
		name string
		in   []int
	}
	tests := []series{
		{name: "empty", in: nil},
		{name: "one hour", in: []int{7}},
		{name: "all zero", in: []int{0, 0, 0, 0}},
		{name: "spiky", in: []int{0, 0, 13, 0, 1, 0, 0, 40, 2}},
		{name: "near 2^31", in: []int{near - 1, near - 3, near, 0, near - 2, 1}},
		// Σ|x| passes 2^53: 2^53+1 rounds to 2^53 as a float64, so the
		// exact integer sum (2) differs from the float64 copy's Kahan
		// sum (1); only the Kahan fallback matches it.
		{name: "beyond 2^53", in: []int{beyond, -(beyond - 1), -3, 5, -1}},
		{name: "negative", in: []int{-4, 9, -1, 0, -12, 3}},
	}
	traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: 1, Hours: 17520, Seed: 2018})
	if err != nil {
		t.Fatal(err)
	}
	for g, tr := range traces {
		tests = append(tests, series{name: fmt.Sprintf("cohort 17520h group %d", g+1), in: tr.Demand})
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fl := make([]float64, len(tt.in))
			for i, d := range tt.in {
				fl[i] = float64(d)
			}
			for _, pair := range [][2]float64{
				{stats.Sum(tt.in), stats.Sum(fl)},
				{stats.Mean(tt.in), stats.Mean(fl)},
				{stats.Variance(tt.in), stats.Variance(fl)},
				{stats.StdDev(tt.in), stats.StdDev(fl)},
				{stats.FluctuationRatio(tt.in), stats.FluctuationRatio(fl)},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Errorf("int %v (%b) != float64 %v (%b)", pair[0], math.Float64bits(pair[0]), pair[1], math.Float64bits(pair[1]))
				}
			}
		})
	}
}
