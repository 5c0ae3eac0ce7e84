package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTraceValidate(t *testing.T) {
	tests := []struct {
		name   string
		tr     Trace
		wantOK bool
	}{
		{name: "valid", tr: Trace{User: "u", Demand: []int{0, 1, 2}}, wantOK: true},
		{name: "empty demand ok", tr: Trace{User: "u"}, wantOK: true},
		{name: "no user", tr: Trace{Demand: []int{1}}},
		{name: "negative demand", tr: Trace{User: "u", Demand: []int{1, -1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.tr.Validate()
			if tt.wantOK && err != nil {
				t.Errorf("Validate = %v, want nil", err)
			}
			if !tt.wantOK && err == nil {
				t.Error("Validate = nil, want error")
			}
		})
	}
}

func TestTraceAccessors(t *testing.T) {
	tr := Trace{User: "u", Demand: []int{3, 0, 5, 2}}
	if got := tr.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	if got := tr.MaxDemand(); got != 5 {
		t.Errorf("MaxDemand = %d, want 5", got)
	}
	if got := tr.TotalDemand(); got != 10 {
		t.Errorf("TotalDemand = %d, want 10", got)
	}
	fs := tr.Floats()
	if len(fs) != 4 || fs[2] != 5 {
		t.Errorf("Floats = %v", fs)
	}
}

func TestTraceClip(t *testing.T) {
	tr := Trace{User: "u", Demand: []int{1, 2, 3, 4}}
	tests := []struct {
		hours int
		want  int
	}{
		{hours: 2, want: 2},
		{hours: 0, want: 0},
		{hours: -1, want: 0},
		{hours: 10, want: 4},
	}
	for _, tt := range tests {
		got := tr.Clip(tt.hours)
		if got.Len() != tt.want {
			t.Errorf("Clip(%d).Len = %d, want %d", tt.hours, got.Len(), tt.want)
		}
	}
	// Clip must copy, not alias.
	clipped := tr.Clip(2)
	clipped.Demand[0] = 99
	if tr.Demand[0] != 1 {
		t.Error("Clip aliased the original demand slice")
	}
}

func TestClassify(t *testing.T) {
	tests := []struct {
		name string
		tr   Trace
		want Group
	}{
		{
			name: "constant is stable",
			tr:   Trace{User: "u", Demand: []int{5, 5, 5, 5}},
			want: GroupStable,
		},
		{
			name: "half on half off is moderate", // sigma/mu = 1
			tr:   Trace{User: "u", Demand: []int{10, 0, 10, 0}},
			want: GroupModerate,
		},
		{
			name: "rare spike is volatile", // f=1/20 -> ratio sqrt(19) ~ 4.36
			tr:   Trace{User: "u", Demand: append([]int{40}, make([]int, 19)...)},
			want: GroupVolatile,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Classify(tt.tr); got != tt.want {
				t.Errorf("Classify = %v (ratio %v), want %v", got, tt.tr.FluctuationRatio(), tt.want)
			}
		})
	}
}

// TestTraceFit: Fit clips a longer trace, zero-pads a shorter one and
// returns an exact fit as is, never touching the input; each fitted
// copy is the one allocation PlanTraces paid before Fit existed.
func TestTraceFit(t *testing.T) {
	tests := []struct {
		name   string
		hours  int
		want   []int
		allocs float64
	}{
		{name: "longer", hours: 2, want: []int{1, 2}, allocs: 1},
		{name: "shorter", hours: 6, want: []int{1, 2, 3, 4, 0, 0}, allocs: 1},
		{name: "equal", hours: 4, want: []int{1, 2, 3, 4}, allocs: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := Trace{User: "u", Demand: []int{1, 2, 3, 4}}
			got := tr.Fit(tt.hours)
			if got.User != "u" || fmt.Sprint(got.Demand) != fmt.Sprint(tt.want) {
				t.Fatalf("Fit(%d) = %+v, want demand %v", tt.hours, got, tt.want)
			}
			got.Demand[0] = 99
			if tt.hours != tr.Len() && tr.Demand[0] != 1 {
				t.Error("Fit aliased the input's demand when it had to copy")
			}
			if fmt.Sprint(tr.Demand[1:]) != "[2 3 4]" || tr.Len() != 4 {
				t.Errorf("Fit mutated its input: %v", tr.Demand)
			}
			if n := testing.AllocsPerRun(20, func() { _ = tr.Fit(tt.hours) }); n != tt.allocs {
				t.Errorf("Fit(%d) made %v allocations, want %v", tt.hours, n, tt.allocs)
			}
		})
	}
}

// TestClassifyZeroAllocs pins the cohort builder's rejection test at
// zero allocations: the ratio reads Demand in place.
func TestClassifyZeroAllocs(t *testing.T) {
	tr := SpikeTrainForRatio(2, 9).Generate("u", 8760, rand.New(rand.NewSource(1)))
	if n := testing.AllocsPerRun(20, func() { _ = tr.FluctuationRatio() }); n != 0 {
		t.Errorf("FluctuationRatio made %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { _ = Classify(tr) }); n != 0 {
		t.Errorf("Classify made %v allocations, want 0", n)
	}
}

func TestGroupString(t *testing.T) {
	for _, g := range []Group{GroupStable, GroupModerate, GroupVolatile} {
		if s := g.String(); s == "" || s[0] != 'G' {
			t.Errorf("Group(%d).String = %q", int(g), s)
		}
	}
	if s := Group(42).String(); s != "Group(42)" {
		t.Errorf("unknown group String = %q", s)
	}
}

func TestGroupTraces(t *testing.T) {
	traces := []Trace{
		{User: "a", Demand: []int{5, 5, 5}},
		{User: "b", Demand: []int{10, 0, 10, 0}},
		{User: "c", Demand: append([]int{40}, make([]int, 19)...)},
	}
	grouped := GroupTraces(traces)
	if len(grouped[GroupStable]) != 1 || grouped[GroupStable][0].User != "a" {
		t.Errorf("stable group = %v", grouped[GroupStable])
	}
	if len(grouped[GroupModerate]) != 1 || grouped[GroupModerate][0].User != "b" {
		t.Errorf("moderate group = %v", grouped[GroupModerate])
	}
	if len(grouped[GroupVolatile]) != 1 || grouped[GroupVolatile][0].User != "c" {
		t.Errorf("volatile group = %v", grouped[GroupVolatile])
	}
}

func TestPropertySpikeTrainRatioAnalytic(t *testing.T) {
	// The spike-train generator's realized sigma/mu must track the
	// analytic sqrt((1-f)/f) within discretization error.
	f := func(seed int64, rawRatio float64) bool {
		target := 0.3 + math.Mod(math.Abs(rawRatio), 5.0)
		gen := SpikeTrainForRatio(target, 10)
		tr := gen.Generate("u", 2000, newTestRand(seed))
		got := tr.FluctuationRatio()
		return math.Abs(got-target)/target < 0.15
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestUserNameMatchesSprintf pins the cohort's strconv user names to
// the fmt spelling they replace, across the zero-padding boundaries.
func TestUserNameMatchesSprintf(t *testing.T) {
	for _, g := range []Group{GroupStable, GroupModerate, GroupVolatile, Group(12)} {
		for _, i := range []int{0, 1, 9, 10, 42, 99, 100, 101, 999, 1000, 12345} {
			if got, want := userName(g, i), fmt.Sprintf("user-g%d-%03d", int(g), i); got != want {
				t.Errorf("userName(%d, %d) = %q, want %q", g, i, got, want)
			}
		}
	}
}
