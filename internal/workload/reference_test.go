package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// This file keeps the cohort synthesis as it was written before the
// generators filled reused scratch: every draw allocates its series and
// shuffles with rand.Perm. The scratch path must return these traces
// byte for byte.

// refGenerate is g.Generate for every generator the cohort draws from.
func refGenerate(g Generator, user string, hours int, rng *rand.Rand) Trace {
	demand := make([]int, hours)
	switch g := g.(type) {
	case StableGenerator:
		phase := rng.Float64() * 2 * math.Pi
		var diurnal [24]float64
		for h := range diurnal {
			diurnal[h] = g.DiurnalAmp * math.Sin(2*math.Pi*float64(h)/24+phase)
		}
		for t := range demand {
			demand[t] = clampInt(g.Base + diurnal[t%24] + rng.NormFloat64()*g.Jitter)
		}
	case DiurnalGenerator:
		mid, amp := (g.Peak+g.Trough)/2, (g.Peak-g.Trough)/2
		dip := g.WeekendDip
		if dip <= 0 {
			dip = 1
		}
		var daily [24]float64
		for h := range daily {
			daily[h] = mid + amp*math.Sin(2*math.Pi*float64(h)/24)
		}
		for t := range demand {
			level := daily[t%24]
			if (t/24)%7 >= 5 {
				level *= dip
			}
			demand[t] = clampInt(level + rng.NormFloat64()*g.Noise)
		}
	case BurstyGenerator:
		remaining, height := 0, 0.0
		for t := range demand {
			if remaining == 0 && rng.Float64() < g.BurstRate {
				remaining = 1
				if g.MeanBurstLen > 1 {
					for rng.Float64() < 1-1/g.MeanBurstLen {
						remaining++
					}
				}
				height = g.BurstHeight * (0.5 + rng.Float64())
			}
			if remaining > 0 {
				demand[t] = clampInt(height + rng.NormFloat64()*height/10)
				remaining--
			} else {
				demand[t] = clampInt(g.Idle + rng.NormFloat64()*g.Idle/10)
			}
		}
	case OnOffGenerator:
		on, off := max(g.OnHours, 1), max(g.OffHours, 1)
		for t := range demand {
			if t%(on+off) < on {
				demand[t] = clampInt(g.OnLevel + rng.NormFloat64()*g.Jitter)
			}
		}
	case RandomWalkGenerator:
		level := g.Start
		for t := range demand {
			level += rng.NormFloat64() * g.Step
			if level < 0 {
				level = -level
			}
			if g.Max > 0 && level > g.Max {
				level = 2*g.Max - level
			}
			demand[t] = clampInt(level)
		}
	case SpikeTrainGenerator:
		want := min(max(int(math.Round(g.Fraction*float64(hours))), 1), hours)
		for _, idx := range rng.Perm(hours)[:want] {
			demand[idx] = g.Height
		}
	case RampDown:
		tr := refGenerate(g.Inner, user, hours, rng)
		for t := max(int(g.EndFraction*float64(hours)), 0); t < len(tr.Demand); t++ {
			tr.Demand[t] = clampInt(float64(tr.Demand[t]) * g.Tail)
		}
		return tr
	case PauseResume:
		tr := refGenerate(g.Inner, user, hours, rng)
		from, to := max(int(g.PauseFraction*float64(hours)), 0), int(g.ResumeFraction*float64(hours))
		for t := from; t < min(to, len(tr.Demand)); t++ {
			tr.Demand[t] = 0
		}
		return tr
	default:
		panic("refGenerate: unknown generator")
	}
	return Trace{User: user, Demand: demand}
}

// refCohort is NewCohort drawn through the reference generators.
func refCohort(cfg CohortConfig) []Trace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var traces []Trace
	for _, g := range []Group{GroupStable, GroupModerate, GroupVolatile} {
		for i := 0; i < cfg.PerGroup; i++ {
			traces = append(traces, refGenerateInBand(userName(g, i), g, cfg.Hours, rng))
		}
	}
	return traces
}

func refGenerateInBand(user string, g Group, hours int, rng *rand.Rand) Trace {
	pool := generatorPool(g, rng)
	for attempt := 0; attempt < maxDraws; attempt++ {
		gen := pool[rng.Intn(len(pool))]
		tr := refGenerate(gen.gen.(Generator), user, hours, rng)
		if Classify(tr) == g && tr.MaxDemand() > 0 {
			return tr
		}
	}
	target := map[Group]float64{GroupStable: 0.5, GroupModerate: 2.0, GroupVolatile: 4.5}[g]
	height := 1 + rng.Intn(20)
	return refGenerate(SpikeTrainForRatio(target, height), user, hours, rng)
}

// FuzzCohortGenerator: over seeds, up to four users per band and
// horizons up to 3000 hours, the cohort generator draws the reference
// generators' traces byte for byte, and each trace's exported Generate
// path agrees with its reference too.
func FuzzCohortGenerator(f *testing.F) {
	f.Add(int64(2018), uint8(3), uint16(1460))
	f.Add(int64(1), uint8(0), uint16(0))
	f.Add(int64(-7), uint8(1), uint16(23))
	f.Add(int64(99), uint8(2), uint16(2999))
	f.Fuzz(func(t *testing.T, seed int64, perGroup uint8, hours uint16) {
		cfg := CohortConfig{PerGroup: 1 + int(perGroup)%4, Hours: 1 + int(hours)%3000, Seed: seed}
		want := refCohort(cfg)
		gen, err := NewCohortGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if tr := gen.Next(); !reflect.DeepEqual(tr, want[i]) {
				t.Fatalf("%+v: draw %d (%s) differs from the reference generators", cfg, i, want[i].User)
			}
		}
		rng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for _, g := range []Group{GroupStable, GroupModerate, GroupVolatile} {
			pool, refPool := generatorPool(g, rng), generatorPool(g, refRng)
			for k, ng := range pool {
				got := ng.gen.(Generator).Generate("u", cfg.Hours, rng)
				if ref := refGenerate(refPool[k].gen.(Generator), "u", cfg.Hours, refRng); !reflect.DeepEqual(got, ref) {
					t.Fatalf("%+v: %s.Generate differs from the reference", cfg, ng.name)
				}
			}
		}
	})
}
