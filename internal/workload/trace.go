// Package workload models user demand as hourly traces and provides
// synthetic demand generators calibrated to the paper's three demand
// fluctuation bands (sigma/mu < 1, 1..3, > 3, Fig. 2). The paper's
// evaluation uses 300 users from the Google cluster-usage traces plus
// EC2 usage logs; those raw traces are external data, so this package
// synthesizes demand series with the same structure — per-user hourly
// instance counts with controllable burstiness — and package gtrace can
// parse the real trace formats when available.
package workload

import (
	"errors"
	"fmt"

	"rimarket/internal/stats"
)

// Trace is a per-user demand series: Demand[t] is the number of
// instances the user needs during hour t (the paper's d_t).
type Trace struct {
	// User identifies the trace's owner; synthetic cohorts use
	// "user-<group>-<n>" names.
	User string
	// Demand holds one non-negative instance count per hour.
	Demand []int
}

// Validate reports whether the trace is well formed (non-negative
// demand everywhere).
func (tr Trace) Validate() error {
	if tr.User == "" {
		return errors.New("workload: trace has no user")
	}
	for t, d := range tr.Demand {
		if d < 0 {
			return fmt.Errorf("workload: user %s: negative demand %d at hour %d", tr.User, d, t)
		}
	}
	return nil
}

// Len returns the trace length in hours.
func (tr Trace) Len() int { return len(tr.Demand) }

// Floats returns the demand series as float64 for statistics.
func (tr Trace) Floats() []float64 {
	out := make([]float64, len(tr.Demand))
	for i, d := range tr.Demand {
		out[i] = float64(d)
	}
	return out
}

// FluctuationRatio returns sigma/mu of the demand series, the paper's
// grouping statistic (Fig. 2).
func (tr Trace) FluctuationRatio() float64 {
	return stats.FluctuationRatio(tr.Demand)
}

// MaxDemand returns the largest hourly demand in the trace.
func (tr Trace) MaxDemand() int {
	maxD := 0
	for _, d := range tr.Demand {
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}

// TotalDemand returns the sum of hourly demands (instance-hours).
func (tr Trace) TotalDemand() int {
	total := 0
	for _, d := range tr.Demand {
		total += d
	}
	return total
}

// Clip returns a copy of the trace truncated to at most hours entries.
func (tr Trace) Clip(hours int) Trace {
	if hours < 0 {
		hours = 0
	}
	if hours > len(tr.Demand) {
		hours = len(tr.Demand)
	}
	return Trace{User: tr.User, Demand: append([]int(nil), tr.Demand[:hours]...)}
}

// Fit returns the trace fitted to exactly hours entries: clipped when
// longer, zero-padded when shorter — each a fresh copy — and tr itself
// when it already fits. tr is never mutated.
func (tr Trace) Fit(hours int) Trace {
	switch {
	case tr.Len() > hours:
		return tr.Clip(hours)
	case tr.Len() < hours:
		demand := make([]int, hours)
		copy(demand, tr.Demand)
		return Trace{User: tr.User, Demand: demand}
	}
	return tr
}

// Group is the paper's demand-fluctuation band (Fig. 2).
type Group int

// Fluctuation groups. Enums start at 1 so the zero value is invalid.
const (
	// GroupStable holds users with sigma/mu < 1 (Group 1).
	GroupStable Group = iota + 1
	// GroupModerate holds users with 1 <= sigma/mu <= 3 (Group 2).
	GroupModerate
	// GroupVolatile holds users with sigma/mu > 3 (Group 3).
	GroupVolatile
)

// String implements fmt.Stringer.
func (g Group) String() string {
	switch g {
	case GroupStable:
		return "Group 1 (stable, sigma/mu < 1)"
	case GroupModerate:
		return "Group 2 (moderate, 1 <= sigma/mu <= 3)"
	case GroupVolatile:
		return "Group 3 (volatile, sigma/mu > 3)"
	default:
		return fmt.Sprintf("Group(%d)", int(g))
	}
}

// Classify returns the fluctuation group of a trace per the paper's
// thresholds.
func Classify(tr Trace) Group {
	r := tr.FluctuationRatio()
	switch {
	case r < 1:
		return GroupStable
	case r <= 3:
		return GroupModerate
	default:
		return GroupVolatile
	}
}

// GroupTraces partitions traces into the three fluctuation groups.
func GroupTraces(traces []Trace) map[Group][]Trace {
	out := make(map[Group][]Trace, 3)
	for _, tr := range traces {
		g := Classify(tr)
		out[g] = append(out[g], tr)
	}
	return out
}
