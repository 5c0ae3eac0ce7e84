package workload

import (
	"math/rand"
)

// RampDown wraps a generator with a project that winds down mid-trace:
// after EndHour the demand drops to Tail times its generated value.
// This is the paper's core motivation for the marketplace — "the
// reservations still have large remaining period when users' jobs are
// finished" (Section I) — and produces the underutilized reservations
// the selling algorithms profitably shed.
type RampDown struct {
	// Inner generates the pre-wind-down demand.
	Inner Generator
	// EndFraction places the wind-down at EndFraction * hours.
	EndFraction float64
	// Tail scales demand after the wind-down (0 ends the project
	// entirely; 0.5 halves it).
	Tail float64
}

// Generate implements Generator.
func (g RampDown) Generate(user string, hours int, rng *rand.Rand) Trace {
	return generate(g, user, hours, rng)
}

func (g RampDown) fill(user string, demand []int, rng *rand.Rand, s *scratch) []int {
	hours := len(demand)
	demand = fillInner(g.Inner, user, demand, rng, s)
	end := int(g.EndFraction * float64(hours))
	if end < 0 {
		end = 0
	}
	for t := end; t < len(demand); t++ {
		demand[t] = clampInt(float64(demand[t]) * g.Tail)
	}
	return demand
}

// PauseResume wraps a generator with a workload that goes quiet and
// then comes back: demand is zeroed during [PauseFraction, ResumeFraction)
// of the trace. A pause spanning a selling checkpoint is exactly the
// adversarial case of the paper's proofs — the online algorithm sees an
// idle window, sells, and the demand then returns — and yields the
// small population of users who pay more than Keep-Reserved in
// Figs. 3-4 (about 1-5%, growing as the checkpoint moves earlier).
type PauseResume struct {
	// Inner generates the underlying demand.
	Inner Generator
	// PauseFraction and ResumeFraction bound the quiet window as
	// fractions of the trace length.
	PauseFraction, ResumeFraction float64
}

// Generate implements Generator.
func (g PauseResume) Generate(user string, hours int, rng *rand.Rand) Trace {
	return generate(g, user, hours, rng)
}

func (g PauseResume) fill(user string, demand []int, rng *rand.Rand, s *scratch) []int {
	hours := len(demand)
	demand = fillInner(g.Inner, user, demand, rng, s)
	from := int(g.PauseFraction * float64(hours))
	to := int(g.ResumeFraction * float64(hours))
	if from < 0 {
		from = 0
	}
	if to > len(demand) {
		to = len(demand)
	}
	for t := from; t < to; t++ {
		demand[t] = 0
	}
	return demand
}
