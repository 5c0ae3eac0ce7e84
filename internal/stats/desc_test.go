package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{name: "empty", in: nil, want: 0},
		{name: "single", in: []float64{7}, want: 7},
		{name: "uniform", in: []float64{2, 2, 2, 2}, want: 2},
		{name: "mixed", in: []float64{1, 2, 3, 4}, want: 2.5},
		{name: "negative", in: []float64{-1, 1}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestSumKahanStability(t *testing.T) {
	// 1e8 spread across many small terms must not drift.
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = 0.1
	}
	if got, want := Sum(xs), 10000.0; !almostEqual(got, want, 1e-6) {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	tests := []struct {
		name    string
		in      []float64
		wantVar float64
	}{
		{name: "empty", in: nil, wantVar: 0},
		{name: "single", in: []float64{3}, wantVar: 0},
		{name: "constant", in: []float64{5, 5, 5}, wantVar: 0},
		{name: "spread", in: []float64{2, 4, 4, 4, 5, 5, 7, 9}, wantVar: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Variance(tt.in); !almostEqual(got, tt.wantVar, 1e-12) {
				t.Errorf("Variance = %v, want %v", got, tt.wantVar)
			}
			if got := StdDev(tt.in); !almostEqual(got, math.Sqrt(tt.wantVar), 1e-12) {
				t.Errorf("StdDev = %v, want %v", got, math.Sqrt(tt.wantVar))
			}
		})
	}
}

func TestFluctuationRatio(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{name: "empty", in: nil, want: 0},
		{name: "all zero", in: []float64{0, 0, 0}, want: 0},
		{name: "constant", in: []float64{4, 4, 4, 4}, want: 0},
		{name: "spread", in: []float64{2, 4, 4, 4, 5, 5, 7, 9}, want: 0.4},
		{name: "zero mean nonzero sigma", in: []float64{-1, 1}, want: math.Inf(1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := FluctuationRatio(tt.in)
			if math.IsInf(tt.want, 1) {
				if !math.IsInf(got, 1) {
					t.Errorf("FluctuationRatio = %v, want +Inf", got)
				}
				return
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("FluctuationRatio = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Fatalf("MinMax(nil) err = %v, want ErrEmpty", err)
	}
	lo, hi, err := MinMax([]float64{3, -2, 9, 0})
	if err != nil {
		t.Fatalf("MinMax: %v", err)
	}
	if lo != -2 || hi != 9 {
		t.Errorf("MinMax = (%v, %v), want (-2, 9)", lo, hi)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		q    float64
		want float64
	}{
		{q: 0, want: 1},
		{q: 100, want: 10},
		{q: 50, want: 5.5},
		{q: 25, want: 3.25},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.q)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.q, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1) succeeded, want error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) succeeded, want error")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestNormalize(t *testing.T) {
	got, err := Normalize([]float64{2, 4, 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Normalize[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for _, base := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := Normalize([]float64{1}, base); err == nil {
			t.Errorf("Normalize(base=%v) succeeded, want error", base)
		}
	}
}

func TestFractions(t *testing.T) {
	xs := []float64{0.5, 0.9, 1.0, 1.1, 1.5}
	if got := FractionBelow(xs, 1.0); !almostEqual(got, 0.4, 1e-12) {
		t.Errorf("FractionBelow = %v, want 0.4", got)
	}
	if got := FractionAbove(xs, 1.0); !almostEqual(got, 0.4, 1e-12) {
		t.Errorf("FractionAbove = %v, want 0.4", got)
	}
	if got := FractionBelow(nil, 1.0); got != 0 {
		t.Errorf("FractionBelow(nil) = %v, want 0", got)
	}
	if got := FractionAbove(nil, 1.0); got != 0 {
		t.Errorf("FractionAbove(nil) = %v, want 0", got)
	}
}

func TestPropertyMeanBoundedByMinMax(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		lo, hi, err := MinMax(clean)
		if err != nil {
			return false
		}
		mu := Mean(clean)
		return mu >= lo-1e-6 && mu <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyNormalizeRoundTrip(t *testing.T) {
	f := func(xs []float64, base float64) bool {
		if base == 0 || math.IsNaN(base) || math.IsInf(base, 0) {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		normed, err := Normalize(xs, base)
		if err != nil {
			return false
		}
		for i := range normed {
			back := normed[i] * base
			tol := 1e-9 * math.Max(1, math.Abs(xs[i]))
			if math.IsInf(normed[i], 0) || math.IsNaN(back) {
				continue // overflow of extreme quick inputs is acceptable
			}
			if math.Abs(back-xs[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 || s.Min != 1 || s.Max != 10 {
		t.Errorf("summary = %+v", s)
	}
	if !almostEqual(s.Median, 5.5, 1e-12) {
		t.Errorf("median = %v, want 5.5", s.Median)
	}
	if !almostEqual(s.Mean, 5.5, 1e-12) {
		t.Errorf("mean = %v", s.Mean)
	}
	if !almostEqual(s.P90, 9.1, 1e-9) {
		t.Errorf("p90 = %v, want 9.1", s.P90)
	}
	if s.String() == "" || s.StdDev <= 0 {
		t.Errorf("String/StdDev: %q %v", s.String(), s.StdDev)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
}

func TestPropertySummaryOrdering(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, b := range raw {
			xs[i] = float64(b)
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.P25 && s.P25 <= s.Median && s.Median <= s.P75 &&
			s.P75 <= s.P90 && s.P90 <= s.Max &&
			s.Mean >= s.Min && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
