// Package simulate is the hourly cost engine behind the reproduction:
// it replays a demand trace against a reservation schedule, applies a
// selling policy at each reserved instance's checkpoint, assigns
// demands to instances in the paper's least-remaining-period-first
// working sequence, and accounts cost exactly per Eq. (1):
//
//	C_t = o_t*p + n_t*R + r_t*alpha*p - s_t*a*rp*R
//
// The engine follows the paper's experimental pipeline: reservation
// decisions (n_t) are produced beforehand by package purchasing and
// are an input here, so selling decisions never feed back into
// purchasing — exactly how the paper prepares its datasets
// (Section VI.A) and what its Algorithms 1 and 2 assume.
package simulate

import (
	"errors"
	"fmt"

	"rimarket/internal/obs"
	"rimarket/internal/pricing"
)

// Config carries the pricing and marketplace parameters of one run.
type Config struct {
	// Instance is the price card (p, R, alpha*p, T).
	Instance pricing.InstanceType
	// SellingDiscount is the paper's a in [0, 1]: the discount the
	// seller applies to the prorated upfront fee to attract buyers.
	SellingDiscount float64
	// MarketFee is the fraction of sale income kept by the marketplace
	// (Amazon charges 0.12). The paper's cost model Eq. (1) books the
	// full discounted upfront as income, so the default of 0 matches the
	// paper; set 0.12 to model the seller's actual proceeds.
	MarketFee float64
	// RecordSchedules makes the engine retain each instance's hour-by-
	// hour busy schedule (needed by the offline OPT analysis) in the
	// InstanceRecords that Run returns and Scratch.Records reads after
	// Scratch.Totals. Off by default because schedules are
	// O(instances x period) memory; a Scratch keeps them in a buffer its
	// next replay reuses. Scratch.Trunk and Scratch.Resume ignore it.
	RecordSchedules bool
	// Metrics, when non-nil, receives one RecordRun per completed run
	// (hours simulated, instances reserved, instances sold) — atomic
	// adds only, so observability costs the engine no allocations and
	// cannot perturb its results. Nil (the default) records nothing.
	// Metrics is observability plumbing, not a pricing parameter: it
	// does not participate in Validate and configs differing only in
	// Metrics describe the same run.
	Metrics *obs.EngineMetrics
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Instance.Validate(); err != nil {
		return err
	}
	if c.SellingDiscount < 0 || c.SellingDiscount > 1 {
		return fmt.Errorf("simulate: selling discount %v outside [0, 1]", c.SellingDiscount)
	}
	if c.MarketFee < 0 || c.MarketFee >= 1 {
		return fmt.Errorf("simulate: market fee %v outside [0, 1)", c.MarketFee)
	}
	return nil
}

// Checkpoint is the information available to a selling policy when a
// reserved instance reaches its decision point.
type Checkpoint struct {
	// Hour is the current simulation hour t.
	Hour int
	// Start is the hour the instance was reserved.
	Start int
	// Age is Hour - Start, always the policy's checkpoint age.
	Age int
	// Worked is the number of hours in [Start, Hour) the instance
	// served demand — the paper's working time w.
	Worked int
	// Remaining is the number of hours left in the reservation period.
	Remaining int
}

// SellingPolicy decides whether to sell a reserved instance at its
// checkpoint. Implementations live in package core.
type SellingPolicy interface {
	// CheckpointAge returns the instance age, in hours, at which
	// ShouldSell is consulted, for a reservation period of periodHours.
	// A non-positive return means the policy never sells.
	CheckpointAge(periodHours int) int
	// ShouldSell reports whether to sell the instance described by ck.
	ShouldSell(ck Checkpoint) bool
}

// MultiCheckpointPolicy is an optional extension of SellingPolicy for
// policies that revisit the decision at several ages (e.g. check at
// T/4, then T/2, then 3T/4 if still held). When a policy implements it,
// the engine consults ShouldSell at every returned age instead of the
// single CheckpointAge.
type MultiCheckpointPolicy interface {
	SellingPolicy
	// CheckpointAges returns the decision ages in strictly increasing
	// order; ages outside (0, periodHours) are ignored.
	CheckpointAges(periodHours int) []int
}

// PerInstancePolicy is an optional extension of SellingPolicy for
// policies that give each reserved instance its own decision age —
// the randomized algorithm the paper sketches as future work draws the
// checkpoint fraction per instance. Implementations must be
// deterministic in (start, batchIndex) so runs are reproducible.
type PerInstancePolicy interface {
	SellingPolicy
	// InstanceCheckpointAge returns the decision age for the instance
	// reserved at hour start with the given 1-based batch index. A
	// non-positive return means this instance is never offered for sale.
	InstanceCheckpointAge(start, batchIndex, periodHours int) int
}

// CostBreakdown decomposes a run's cost per Eq. (1).
type CostBreakdown struct {
	// OnDemand is sum over t of o_t * p.
	OnDemand float64
	// Upfront is sum over t of n_t * R.
	Upfront float64
	// ReservedHourly is sum over t of r_t * alpha * p.
	ReservedHourly float64
	// SaleIncome is sum over t of s_t * a * rp * R (after the market
	// fee, when one is configured).
	SaleIncome float64
}

// Total returns the paper's actual cost: spend minus sale income.
func (c CostBreakdown) Total() float64 {
	return c.OnDemand + c.Upfront + c.ReservedHourly - c.SaleIncome
}

// Add accumulates another breakdown into c.
func (c *CostBreakdown) Add(other CostBreakdown) {
	c.OnDemand += other.OnDemand
	c.Upfront += other.Upfront
	c.ReservedHourly += other.ReservedHourly
	c.SaleIncome += other.SaleIncome
}

// HourRecord is the per-hour accounting row (d_t, n_t, r_t, o_t, s_t).
// The engine does not write rows; HourRows derives them from a run's
// inputs and per-instance records.
type HourRecord struct {
	Demand    int // d_t
	NewlyRes  int // n_t
	ActiveRes int // r_t, after sales take effect
	OnDemand  int // o_t
	Sold      int // s_t
}

// InstanceRecord is one reserved instance's lifecycle.
type InstanceRecord struct {
	// Start is the hour the instance was reserved; it is active during
	// [Start, Start+T) unless sold.
	Start int
	// BatchIndex is the instance's 1-based index within its reservation
	// batch, fixing the paper's within-batch working-sequence tie-break.
	BatchIndex int
	// SoldAt is the hour the instance was sold, or -1 if never sold.
	// A sold instance does not serve demand at SoldAt or later.
	SoldAt int
	// Worked counts the hours the instance served demand.
	Worked int
	// WorkedAtCheckpoint counts hours served before the selling
	// checkpoint (-1 when the policy has no checkpoint).
	WorkedAtCheckpoint int
	// Schedule, when Config.RecordSchedules is set, holds one entry per
	// hour of the instance's life ([Start, Start+T)); true means the
	// instance served demand that hour.
	Schedule []bool
}

// Result is a completed run.
type Result struct {
	// Cost is the run's cost decomposition; Cost.Total() is the paper's
	// actual cost.
	Cost CostBreakdown
	// Instances has one record per reserved instance, in reservation
	// order.
	Instances []InstanceRecord
}

// SoldCount returns the number of instances sold during the run.
func (r Result) SoldCount() int {
	n := 0
	for _, inst := range r.Instances {
		if inst.SoldAt >= 0 {
			n++
		}
	}
	return n
}

// ErrLengthMismatch is returned when the demand and reservation series
// have different lengths.
var ErrLengthMismatch = errors.New("simulate: demand and reservation series must have equal length")
