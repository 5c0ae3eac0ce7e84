package workload

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func newTestRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// quickCfg keeps property tests fast enough for the full suite.
func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 40}
}

func TestGeneratorsProduceValidTraces(t *testing.T) {
	gens := []struct {
		name string
		gen  Generator
	}{
		{name: "stable", gen: StableGenerator{Base: 10, Jitter: 2, DiurnalAmp: 3}},
		{name: "diurnal", gen: DiurnalGenerator{Peak: 20, Trough: 2, Noise: 1, WeekendDip: 0.3}},
		{name: "bursty", gen: BurstyGenerator{Idle: 0, BurstHeight: 30, BurstRate: 0.05, MeanBurstLen: 6}},
		{name: "onoff", gen: OnOffGenerator{OnLevel: 8, OnHours: 9, OffHours: 15, Jitter: 1}},
		{name: "walk", gen: RandomWalkGenerator{Start: 5, Step: 0.5, Max: 40}},
		{name: "spikes", gen: SpikeTrainGenerator{Height: 12, Fraction: 0.1}},
	}
	for _, tt := range gens {
		t.Run(tt.name, func(t *testing.T) {
			tr := tt.gen.Generate("u", 500, newTestRand(1))
			if err := tr.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			if tr.Len() != 500 {
				t.Errorf("Len = %d, want 500", tr.Len())
			}
			if tr.MaxDemand() == 0 {
				t.Error("generator produced an all-zero trace")
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	gen := BurstyGenerator{Idle: 1, BurstHeight: 25, BurstRate: 0.03, MeanBurstLen: 5}
	a := gen.Generate("u", 300, newTestRand(7))
	b := gen.Generate("u", 300, newTestRand(7))
	if !reflect.DeepEqual(a.Demand, b.Demand) {
		t.Error("same seed produced different traces")
	}
	c := gen.Generate("u", 300, newTestRand(8))
	if reflect.DeepEqual(a.Demand, c.Demand) {
		t.Error("different seeds produced identical traces (suspicious)")
	}
}

func TestStableGeneratorBand(t *testing.T) {
	gen := StableGenerator{Base: 10, Jitter: 1, DiurnalAmp: 2}
	tr := gen.Generate("u", 2000, newTestRand(3))
	if g := Classify(tr); g != GroupStable {
		t.Errorf("stable generator classified %v (ratio %v)", g, tr.FluctuationRatio())
	}
}

func TestOnOffGeneratorDefaultsPhases(t *testing.T) {
	// Zero phase lengths must not divide by zero.
	gen := OnOffGenerator{OnLevel: 5}
	tr := gen.Generate("u", 10, newTestRand(1))
	if tr.Len() != 10 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestSpikeTrainForRatioClampsBadInput(t *testing.T) {
	gen := SpikeTrainForRatio(-2, 5)
	if gen.Fraction <= 0 || gen.Fraction > 1 {
		t.Errorf("Fraction = %v, want in (0,1]", gen.Fraction)
	}
	tr := gen.Generate("u", 50, newTestRand(1))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewCohortBands(t *testing.T) {
	cfg := CohortConfig{PerGroup: 12, Hours: 1500, Seed: 42}
	traces, err := NewCohort(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 36 {
		t.Fatalf("len = %d, want 36", len(traces))
	}
	grouped := GroupTraces(traces)
	for _, g := range []Group{GroupStable, GroupModerate, GroupVolatile} {
		if n := len(grouped[g]); n != 12 {
			t.Errorf("%v has %d users, want 12", g, n)
		}
	}
	for _, tr := range traces {
		if err := tr.Validate(); err != nil {
			t.Errorf("cohort trace invalid: %v", err)
		}
		if tr.MaxDemand() == 0 {
			t.Errorf("cohort trace %s is all zero", tr.User)
		}
	}
}

func TestNewCohortDeterministic(t *testing.T) {
	cfg := CohortConfig{PerGroup: 4, Hours: 600, Seed: 11}
	a, err := NewCohort(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCohort(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same config produced different cohorts")
	}
}

// newCohortSerial is NewCohort's loop as it was before the cohort was
// drawn through CohortGenerator: one seeded source, every band's users
// appended in order.
func newCohortSerial(cfg CohortConfig) []Trace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var traces []Trace
	for _, g := range []Group{GroupStable, GroupModerate, GroupVolatile} {
		for i := 0; i < cfg.PerGroup; i++ {
			traces = append(traces, generateInBand(userName(g, i), g, cfg.Hours, rng, new(scratch)))
		}
	}
	return traces
}

// TestCohortGenerator: the generator's draws, and NewCohort on top of
// them, are the serial loop's traces in the same order; Len counts the
// users, and a drawn-out generator returns the zero Trace.
func TestCohortGenerator(t *testing.T) {
	for _, cfg := range []CohortConfig{
		{PerGroup: 1, Hours: 50, Seed: 1},
		{PerGroup: 7, Hours: 600, Seed: 11},
		{PerGroup: 30, Hours: 1460, Seed: 2018},
	} {
		want := newCohortSerial(cfg)
		gen, err := NewCohortGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gen.Len() != len(want) {
			t.Fatalf("%+v: Len = %d, want %d", cfg, gen.Len(), len(want))
		}
		for i := range want {
			if tr := gen.Next(); !reflect.DeepEqual(tr, want[i]) {
				t.Fatalf("%+v: draw %d (%s) differs from the serial loop's %s", cfg, i, tr.User, want[i].User)
			}
		}
		if tr := gen.Next(); !reflect.DeepEqual(tr, Trace{}) {
			t.Errorf("%+v: draw past the cohort = %s, want the zero Trace", cfg, tr.User)
		}
		got, err := NewCohort(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: NewCohort differs from the serial loop", cfg)
		}
	}
	if _, err := NewCohortGenerator(CohortConfig{PerGroup: 0, Hours: 10}); err == nil {
		t.Error("NewCohortGenerator accepted PerGroup 0")
	}
}

func TestNewCohortRejectsBadConfig(t *testing.T) {
	for _, cfg := range []CohortConfig{
		{PerGroup: 0, Hours: 100},
		{PerGroup: 10, Hours: 0},
		{PerGroup: -1, Hours: -1},
	} {
		if _, err := NewCohort(cfg); err == nil {
			t.Errorf("NewCohort(%+v) succeeded, want error", cfg)
		}
	}
}

func TestPropertyCohortUsersUnique(t *testing.T) {
	f := func(seed int64) bool {
		traces, err := NewCohort(CohortConfig{PerGroup: 5, Hours: 200, Seed: seed})
		if err != nil {
			return false
		}
		seen := make(map[string]bool, len(traces))
		for _, tr := range traces {
			if seen[tr.User] {
				return false
			}
			seen[tr.User] = true
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestLifecycleGeneratorsEdgeParams(t *testing.T) {
	base := StableGenerator{Base: 6, Jitter: 1, DiurnalAmp: 1}
	tests := []struct {
		name string
		gen  Generator
	}{
		{name: "rampdown at zero", gen: RampDown{Inner: base, EndFraction: 0, Tail: 0}},
		{name: "rampdown negative end", gen: RampDown{Inner: base, EndFraction: -1, Tail: 0.5}},
		{name: "rampdown beyond end", gen: RampDown{Inner: base, EndFraction: 2, Tail: 0}},
		{name: "pause covers everything", gen: PauseResume{Inner: base, PauseFraction: 0, ResumeFraction: 1}},
		{name: "pause beyond trace", gen: PauseResume{Inner: base, PauseFraction: 0.5, ResumeFraction: 5}},
		{name: "pause inverted", gen: PauseResume{Inner: base, PauseFraction: 0.9, ResumeFraction: 0.1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := tt.gen.Generate("u", 200, newTestRand(4))
			if err := tr.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			if tr.Len() != 200 {
				t.Errorf("Len = %d", tr.Len())
			}
		})
	}
	// Full pause zeroes the whole trace.
	tr := PauseResume{Inner: base, PauseFraction: 0, ResumeFraction: 1}.Generate("u", 100, newTestRand(1))
	if tr.TotalDemand() != 0 {
		t.Errorf("full pause left demand %d", tr.TotalDemand())
	}
	// RampDown with Tail 1 is a no-op.
	a := base.Generate("u", 100, newTestRand(9))
	b := RampDown{Inner: base, EndFraction: 0.5, Tail: 1}.Generate("u", 100, newTestRand(9))
	if !reflect.DeepEqual(a.Demand, b.Demand) {
		t.Error("Tail=1 ramp-down changed the trace")
	}
}

func TestAllGeneratorsDeterministic(t *testing.T) {
	gens := map[string]Generator{
		"stable":  StableGenerator{Base: 5, Jitter: 1, DiurnalAmp: 1},
		"diurnal": DiurnalGenerator{Peak: 10, Trough: 1, Noise: 1, WeekendDip: 0.5},
		"onoff":   OnOffGenerator{OnLevel: 4, OnHours: 8, OffHours: 16, Jitter: 0.5},
		"walk":    RandomWalkGenerator{Start: 5, Step: 0.3, Max: 20},
		"spikes":  SpikeTrainGenerator{Height: 9, Fraction: 0.2},
		"ramp":    RampDown{Inner: StableGenerator{Base: 5, Jitter: 1}, EndFraction: 0.4, Tail: 0.2},
		"pause":   PauseResume{Inner: StableGenerator{Base: 5, Jitter: 1}, PauseFraction: 0.1, ResumeFraction: 0.6},
	}
	for name, g := range gens {
		t.Run(name, func(t *testing.T) {
			a := g.Generate("u", 300, newTestRand(12))
			b := g.Generate("u", 300, newTestRand(12))
			if !reflect.DeepEqual(a.Demand, b.Demand) {
				t.Error("same seed differs")
			}
		})
	}
}
