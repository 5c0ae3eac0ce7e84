package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Generator produces a synthetic demand trace. Implementations are
// deterministic given the supplied random source, so experiments are
// reproducible from a seed.
type Generator interface {
	// Generate produces an hours-long trace for the named user.
	Generate(user string, hours int, rng *rand.Rand) Trace
}

// filler is implemented by this package's generators: fill writes
// Generate's series for user into demand, which is hours long,
// overwriting every hour with exactly Generate's random draws, and
// returns it. s lends the generator scratch memory. A generator built
// on a Generator from outside the package returns the series that
// Generate returned instead (which may be of another length).
type filler interface {
	fill(user string, demand []int, rng *rand.Rand, s *scratch) []int
}

// scratch is memory a generator may borrow for the length of one fill:
// a CohortGenerator keeps one for its whole cohort, and Generate lends
// a fresh one.
type scratch struct {
	demand []int // a series rejected by the band test, reused by the next draw
	perm   []int // a spike train's shuffle
}

// series returns an hours-long buffer to fill: the last rejected
// draw's, or a fresh one.
func (s *scratch) series(hours int) []int {
	if len(s.demand) != hours {
		s.demand = make([]int, hours)
	}
	return s.demand
}

// generate is Generate for a package generator: it fills a fresh
// hours-long series on fresh scratch.
func generate(g filler, user string, hours int, rng *rand.Rand) Trace {
	return Trace{User: user, Demand: g.fill(user, make([]int, hours), rng, new(scratch))}
}

// fillInner fills demand from a wrapped generator: through fill for a
// package generator, and through Generate for any other.
func fillInner(g Generator, user string, demand []int, rng *rand.Rand, s *scratch) []int {
	if f, ok := g.(filler); ok {
		return f.fill(user, demand, rng, s)
	}
	return g.Generate(user, len(demand), rng).Demand
}

// clampInt converts a float sample to a non-negative integer demand.
func clampInt(x float64) int {
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	return int(math.Round(x))
}

// StableGenerator emits demand that hovers around a base level with
// small Gaussian jitter and a mild diurnal swing: enterprise steady
// workloads, the paper's Group 1 (sigma/mu < 1).
type StableGenerator struct {
	// Base is the mean instance count (>= 1 for a meaningful trace).
	Base float64
	// Jitter is the standard deviation of hourly Gaussian noise.
	Jitter float64
	// DiurnalAmp is the amplitude of the 24-hour sinusoidal component.
	DiurnalAmp float64
}

// Generate implements Generator.
func (g StableGenerator) Generate(user string, hours int, rng *rand.Rand) Trace {
	return generate(g, user, hours, rng)
}

func (g StableGenerator) fill(_ string, demand []int, rng *rand.Rand, _ *scratch) []int {
	phase := rng.Float64() * 2 * math.Pi
	var diurnal [24]float64 // the swing repeats daily: one Sin per hour of day
	for h := range diurnal {
		diurnal[h] = g.DiurnalAmp * math.Sin(2*math.Pi*float64(h)/24+phase)
	}
	for t := range demand {
		demand[t] = clampInt(g.Base + diurnal[t%24] + rng.NormFloat64()*g.Jitter)
	}
	return demand
}

// DiurnalGenerator emits a day/night web-serving pattern: a sinusoid
// with configurable peak-to-trough swing plus noise. Depending on the
// swing it lands in Group 1 or Group 2.
type DiurnalGenerator struct {
	// Peak and Trough bound the sinusoid (Peak >= Trough >= 0).
	Peak, Trough float64
	// Noise is the standard deviation of hourly Gaussian noise.
	Noise float64
	// WeekendDip scales weekend demand (0 = no traffic on weekends,
	// 1 = weekends identical to weekdays).
	WeekendDip float64
}

// Generate implements Generator.
func (g DiurnalGenerator) Generate(user string, hours int, rng *rand.Rand) Trace {
	return generate(g, user, hours, rng)
}

func (g DiurnalGenerator) fill(_ string, demand []int, rng *rand.Rand, _ *scratch) []int {
	mid := (g.Peak + g.Trough) / 2
	amp := (g.Peak - g.Trough) / 2
	dip := g.WeekendDip
	if dip <= 0 {
		dip = 1
	}
	var daily [24]float64 // one Sin per hour of day, as in StableGenerator
	for h := range daily {
		daily[h] = mid + amp*math.Sin(2*math.Pi*float64(h)/24)
	}
	for t := range demand {
		level := daily[t%24]
		if (t/24)%7 >= 5 { // Saturday, Sunday
			level *= dip
		}
		demand[t] = clampInt(level + rng.NormFloat64()*g.Noise)
	}
	return demand
}

// BurstyGenerator emits mostly idle demand with Poisson-arriving bursts
// of geometric duration: batch analytics jobs, the paper's Group 2/3.
type BurstyGenerator struct {
	// Idle is the instance count between bursts.
	Idle float64
	// BurstHeight is the mean instance count during a burst.
	BurstHeight float64
	// BurstRate is the per-hour probability that a burst starts.
	BurstRate float64
	// MeanBurstLen is the mean burst duration in hours (geometric).
	MeanBurstLen float64
}

// Generate implements Generator.
func (g BurstyGenerator) Generate(user string, hours int, rng *rand.Rand) Trace {
	return generate(g, user, hours, rng)
}

func (g BurstyGenerator) fill(_ string, demand []int, rng *rand.Rand, _ *scratch) []int {
	remaining := 0
	height := 0.0
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
	return demand
}

// OnOffGenerator alternates between an on level and zero with fixed
// duty periods plus jitter: dev/test clusters shut down overnight.
type OnOffGenerator struct {
	// OnLevel is the instance count while on.
	OnLevel float64
	// OnHours and OffHours are the nominal phase lengths.
	OnHours, OffHours int
	// Jitter is the standard deviation of noise while on.
	Jitter float64
}

// Generate implements Generator.
func (g OnOffGenerator) Generate(user string, hours int, rng *rand.Rand) Trace {
	return generate(g, user, hours, rng)
}

func (g OnOffGenerator) fill(_ string, demand []int, rng *rand.Rand, _ *scratch) []int {
	on, off := g.OnHours, g.OffHours
	if on <= 0 {
		on = 1
	}
	if off <= 0 {
		off = 1
	}
	cycle := on + off
	for t := range demand {
		if t%cycle < on {
			demand[t] = clampInt(g.OnLevel + rng.NormFloat64()*g.Jitter)
		} else {
			demand[t] = 0
		}
	}
	return demand
}

// RandomWalkGenerator emits a reflected random walk: organically
// growing or shrinking deployments.
type RandomWalkGenerator struct {
	// Start is the initial instance count.
	Start float64
	// Step is the standard deviation of the hourly increment.
	Step float64
	// Max caps the walk (0 means uncapped).
	Max float64
}

// Generate implements Generator.
func (g RandomWalkGenerator) Generate(user string, hours int, rng *rand.Rand) Trace {
	return generate(g, user, hours, rng)
}

func (g RandomWalkGenerator) fill(_ string, demand []int, rng *rand.Rand, _ *scratch) []int {
	level := g.Start
	for t := range demand {
		level += rng.NormFloat64() * g.Step
		if level < 0 {
			level = -level // reflect at zero
		}
		if g.Max > 0 && level > g.Max {
			level = 2*g.Max - level
		}
		demand[t] = clampInt(level)
	}
	return demand
}

// SpikeTrainGenerator places sparse rectangular spikes of fixed height
// on an otherwise idle trace. Its fluctuation ratio is analytically
// controllable: with spikes occupying fraction f of the hours,
// sigma/mu = sqrt((1-f)/f), so f = 1/(1+s^2) yields target ratio s.
// It is the cohort builder's guaranteed fallback for hitting a band.
type SpikeTrainGenerator struct {
	// Height is the spike height in instances.
	Height int
	// Fraction is the fraction of hours occupied by spikes, in (0, 1].
	Fraction float64
}

// SpikeTrainForRatio returns a SpikeTrainGenerator whose traces have
// fluctuation ratio ~targetRatio.
func SpikeTrainForRatio(targetRatio float64, height int) SpikeTrainGenerator {
	if targetRatio <= 0 {
		targetRatio = 0.1
	}
	return SpikeTrainGenerator{
		Height:   height,
		Fraction: 1 / (1 + targetRatio*targetRatio),
	}
}

// Generate implements Generator.
func (g SpikeTrainGenerator) Generate(user string, hours int, rng *rand.Rand) Trace {
	return generate(g, user, hours, rng)
}

func (g SpikeTrainGenerator) fill(_ string, demand []int, rng *rand.Rand, s *scratch) []int {
	hours := len(demand)
	clear(demand)
	want := int(math.Round(g.Fraction * float64(hours)))
	if want < 1 {
		want = 1
	}
	if want > hours {
		want = hours
	}
	// Choose exactly `want` distinct spike hours so the realized ratio
	// matches the analytic one: the first `want` of a random
	// permutation, shuffled in s's buffer with rand.Perm's own Intn
	// calls, so the draws are Perm's.
	if cap(s.perm) < hours {
		s.perm = make([]int, hours)
	}
	perm := s.perm[:hours]
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	for _, idx := range perm[:want] {
		demand[idx] = g.Height
	}
	return demand
}

// namedGenerator couples a generator with a label for cohort reporting.
type namedGenerator struct {
	name string
	gen  filler
}

func (n namedGenerator) String() string { return fmt.Sprintf("generator(%s)", n.name) }
