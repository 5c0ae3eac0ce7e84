package workload

import (
	"fmt"
	"math/rand"
	"strconv"
)

// CohortConfig describes the synthetic user population that stands in
// for the paper's 300 trace-derived users (Section VI.A): PerGroup
// users in each of the three fluctuation bands.
type CohortConfig struct {
	// PerGroup is the number of users per fluctuation group (the paper
	// uses 100).
	PerGroup int
	// Hours is the trace length (the paper uses one reservation period;
	// tests use much shorter horizons).
	Hours int
	// Seed makes the cohort reproducible.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c CohortConfig) Validate() error {
	if c.PerGroup <= 0 {
		return fmt.Errorf("workload: PerGroup = %d, must be positive", c.PerGroup)
	}
	if c.Hours <= 0 {
		return fmt.Errorf("workload: Hours = %d, must be positive", c.Hours)
	}
	return nil
}

// maxDraws bounds rejection sampling per user before falling back to
// the analytically calibrated spike-train generator.
const maxDraws = 8

// NewCohort synthesizes the experiment population: PerGroup traces per
// fluctuation band, each verified to actually lie in its band (drawn
// from a diverse pool of behavioral generators, with an analytic
// spike-train fallback that guarantees band membership). It is
// CohortGenerator drawn to the end.
func NewCohort(cfg CohortConfig) ([]Trace, error) {
	gen, err := NewCohortGenerator(cfg)
	if err != nil {
		return nil, err
	}
	traces := make([]Trace, gen.Len())
	for i := range traces {
		traces[i] = gen.Next()
	}
	return traces, nil
}

// CohortGenerator draws NewCohort's traces one at a time, in cohort
// order (every stable user, then every moderate one, then every
// volatile one), from one seeded random source: the i-th Next returns
// NewCohort's i-th trace, so a consumer can start on the first users
// while the rest are still being drawn. A generator is not safe for
// concurrent use. It owns the scratch its draws reuse, which dies with
// it.
type CohortGenerator struct {
	cfg  CohortConfig
	rng  *rand.Rand
	next int // index of the next user to draw
	s    scratch
}

// NewCohortGenerator returns a generator positioned at the cohort's
// first user.
func NewCohortGenerator(cfg CohortConfig) (*CohortGenerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &CohortGenerator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Len returns the cohort's user count: three bands of PerGroup users.
func (g *CohortGenerator) Len() int { return 3 * g.cfg.PerGroup }

// Next draws the next user's trace. After Len calls the cohort is
// exhausted and Next returns the zero Trace.
func (g *CohortGenerator) Next() Trace {
	if g.next >= g.Len() {
		return Trace{}
	}
	band, i := GroupStable+Group(g.next/g.cfg.PerGroup), g.next%g.cfg.PerGroup
	g.next++
	return generateInBand(userName(band, i), band, g.cfg.Hours, g.rng, &g.s)
}

// userName returns the name of group g's i-th user, spelled as
// fmt.Sprintf("user-g%d-%03d", g, i) would. It formats with strconv:
// fmt's pooled printers allocate anew after each garbage collection,
// which made a cohort's allocation count depend on GC timing rather
// than on its configuration alone.
func userName(g Group, i int) string {
	b := make([]byte, 0, 16)
	b = strconv.AppendInt(append(b, "user-g"...), int64(g), 10)
	b = append(b, '-')
	for pad := 100; pad > 1 && i < pad; pad /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

// generateInBand draws traces from the group's generator pool until one
// classifies into the requested band, falling back to the calibrated
// spike train. Every draw fills s's series buffer: a rejected draw
// leaves it to the next, and the accepted one is handed over with the
// trace.
func generateInBand(user string, g Group, hours int, rng *rand.Rand, s *scratch) Trace {
	pool := generatorPool(g, rng)
	for attempt := 0; attempt < maxDraws; attempt++ {
		gen := pool[rng.Intn(len(pool))]
		tr := Trace{User: user, Demand: gen.gen.fill(user, s.series(hours), rng, s)}
		if Classify(tr) == g && tr.MaxDemand() > 0 {
			s.demand = nil
			return tr
		}
	}
	// Guaranteed fallback: spike train with the band's midpoint ratio.
	var target float64
	switch g {
	case GroupStable:
		target = 0.5
	case GroupModerate:
		target = 2.0
	default:
		target = 4.5
	}
	height := 1 + rng.Intn(20)
	demand := SpikeTrainForRatio(target, height).fill(user, s.series(hours), rng, s)
	s.demand = nil
	return Trace{User: user, Demand: demand}
}

// generatorPool returns the behavioral generators plausible for a
// fluctuation band, with randomized parameters. Each pool mixes
// stationary behaviors with lifecycle shapes — projects winding down
// (the marketplace's raison d'etre) and workloads that pause and
// resume (the proofs' adversarial case) — in proportions that
// reproduce the paper's outcome tails.
func generatorPool(g Group, rng *rand.Rand) []namedGenerator {
	scale := 1 + rng.Float64()*15 // user size: 1..16 instances
	stable := StableGenerator{
		Base:       2 + scale,
		Jitter:     (2 + scale) * 0.15,
		DiurnalAmp: (2 + scale) * 0.2,
	}
	switch g {
	case GroupStable:
		return []namedGenerator{
			{name: "stable", gen: stable},
			{name: "diurnal-mild", gen: DiurnalGenerator{
				Peak:       scale * 1.5,
				Trough:     scale * 0.7,
				Noise:      scale * 0.1,
				WeekendDip: 0.85,
			}},
			{name: "walk-slow", gen: RandomWalkGenerator{
				Start: scale + 2,
				Step:  0.05,
				Max:   scale * 2.5,
			}},
			{name: "stable-winddown", gen: RampDown{
				Inner:       stable,
				EndFraction: 0.5 + rng.Float64()*0.4,
				Tail:        0.4 + rng.Float64()*0.3,
			}},
			{name: "short-pause", gen: PauseResume{
				Inner:          stable,
				PauseFraction:  rng.Float64() * 0.06,
				ResumeFraction: 0.25 + rng.Float64()*0.2,
			}},
			{name: "deep-winddown", gen: RampDown{
				Inner:       stable,
				EndFraction: 0.35 + rng.Float64()*0.35,
				Tail:        0.1 + rng.Float64()*0.3,
			}},
		}
	case GroupModerate:
		return []namedGenerator{
			{name: "diurnal-deep", gen: DiurnalGenerator{
				Peak:       scale * 2,
				Trough:     0,
				Noise:      scale * 0.3,
				WeekendDip: 0.2,
			}},
			{name: "onoff", gen: OnOffGenerator{
				OnLevel:  scale * 1.5,
				OnHours:  8 + rng.Intn(6),
				OffHours: 16 + rng.Intn(20),
				Jitter:   scale * 0.2,
			}},
			{name: "bursty-mid", gen: BurstyGenerator{
				Idle:         0,
				BurstHeight:  scale * 2,
				BurstRate:    0.02,
				MeanBurstLen: 8,
			}},
			{name: "spike-2", gen: SpikeTrainForRatio(1.5+rng.Float64(), int(scale*2)+1)},
			{name: "project-ends", gen: RampDown{
				Inner:       stable,
				EndFraction: 0.2 + rng.Float64()*0.5,
				Tail:        0,
			}},
			{name: "diurnal-winddown", gen: RampDown{
				Inner: DiurnalGenerator{
					Peak:       scale * 2,
					Trough:     0,
					Noise:      scale * 0.3,
					WeekendDip: 0.2,
				},
				EndFraction: 0.25 + rng.Float64()*0.35,
				Tail:        0,
			}},
			{name: "pause-resume", gen: PauseResume{
				Inner:          stable,
				PauseFraction:  rng.Float64() * 0.06,
				ResumeFraction: 0.45 + rng.Float64()*0.3,
			}},
		}
	default: // GroupVolatile
		return []namedGenerator{
			{name: "bursty-rare", gen: BurstyGenerator{
				Idle:         0,
				BurstHeight:  scale * 4,
				BurstRate:    0.003,
				MeanBurstLen: 5,
			}},
			{name: "spike-4", gen: SpikeTrainForRatio(3.5+rng.Float64()*3, int(scale*3)+1)},
			{name: "burst-then-quiet", gen: RampDown{
				Inner: BurstyGenerator{
					Idle:         0,
					BurstHeight:  scale * 4,
					BurstRate:    0.02,
					MeanBurstLen: 6,
				},
				EndFraction: 0.2 + rng.Float64()*0.3,
				Tail:        0,
			}},
			{name: "quiet-then-burst", gen: PauseResume{
				Inner:          SpikeTrainForRatio(2.8+rng.Float64(), int(scale*4)+1),
				PauseFraction:  rng.Float64() * 0.06,
				ResumeFraction: 0.3 + rng.Float64()*0.35,
			}},
		}
	}
}
