// Package pricing models the Amazon EC2 price structures that drive the
// paper's selling algorithms: on-demand hourly rates, reserved-instance
// upfront fees and discounted hourly rates, payment options, and the
// derived quantities alpha (reservation discount), theta (= p*T/R, the
// ratio between the worst-case on-demand spend over a full period and
// the upfront fee), and the per-algorithm break-even points.
//
// The catalog in catalog.go is a curated set of 1-year-term standard
// (Linux, US East) instance prices as of January 2018, the population
// over which the paper states its measured invariants alpha < 0.36 and
// theta in (1, 4].
package pricing

import (
	"errors"
	"fmt"
	"math"
)

// PaymentOption enumerates Amazon's reserved-instance payment options
// plus plain on-demand purchasing (Table I of the paper).
type PaymentOption int

// Payment options. Enums start at 1 so that the zero value is invalid
// and cannot silently masquerade as a real option.
const (
	// NoUpfront reserves with no upfront fee and the highest monthly fee.
	NoUpfront PaymentOption = iota + 1
	// PartialUpfront reserves with a moderate upfront fee plus monthly fees.
	PartialUpfront
	// AllUpfront pays the full reservation cost upfront.
	AllUpfront
	// OnDemand is hourly pay-as-you-go with no reservation at all.
	OnDemand
)

// String implements fmt.Stringer.
func (o PaymentOption) String() string {
	switch o {
	case NoUpfront:
		return "No Upfront"
	case PartialUpfront:
		return "Partial Upfront"
	case AllUpfront:
		return "All Upfront"
	case OnDemand:
		return "On-Demand"
	default:
		return fmt.Sprintf("PaymentOption(%d)", int(o))
	}
}

// HoursPerYear is the hour count the paper's one-year reservation term
// implies under EC2's hourly billing.
const HoursPerYear = 8760

// HoursPerMonth approximates one month of hourly billing (8760 / 12).
const HoursPerMonth = HoursPerYear / 12

// Plan is one purchasable configuration of an instance type: a payment
// option together with its fees. For reserved plans, Upfront is the
// prepaid fee R and Hourly is the discounted rate alpha*p; for
// on-demand, Upfront is zero and Hourly is the full rate p.
type Plan struct {
	Option  PaymentOption
	Upfront float64 // one-time fee in USD (R)
	Monthly float64 // recurring monthly fee in USD, as listed by Amazon
	Hourly  float64 // effective hourly rate in USD
}

// InstanceType is one EC2 instance type's price card for a 1-year
// standard reservation term, plus the on-demand rate.
type InstanceType struct {
	// Name is the API name of the instance type, e.g. "d2.xlarge".
	Name string
	// OnDemandHourly is the pay-as-you-go hourly rate p in USD.
	OnDemandHourly float64
	// Upfront is the partial-upfront reservation fee R in USD; the paper's
	// model charges R once and then the discounted hourly rate.
	Upfront float64
	// ReservedHourly is the discounted hourly rate alpha*p in USD, covering
	// the recurring portion of the reservation.
	ReservedHourly float64
	// PeriodHours is the reservation period T in hours (HoursPerYear for
	// every catalog entry; tests use shorter synthetic periods).
	PeriodHours int
}

// Validate reports whether the price card is internally consistent:
// finite, positive rates, a reserved rate strictly below on-demand, and
// a positive period.
func (it InstanceType) Validate() error {
	switch {
	case it.Name == "":
		return errors.New("pricing: instance type has no name")
	case !finite(it.OnDemandHourly) || !finite(it.Upfront) || !finite(it.ReservedHourly):
		return fmt.Errorf("pricing: %s: prices must be finite (on-demand %v, upfront %v, reserved %v)",
			it.Name, it.OnDemandHourly, it.Upfront, it.ReservedHourly)
	case it.OnDemandHourly <= 0:
		return fmt.Errorf("pricing: %s: on-demand rate %v must be positive", it.Name, it.OnDemandHourly)
	case it.Upfront <= 0:
		return fmt.Errorf("pricing: %s: upfront fee %v must be positive", it.Name, it.Upfront)
	case it.ReservedHourly < 0:
		return fmt.Errorf("pricing: %s: reserved rate %v must be non-negative", it.Name, it.ReservedHourly)
	case it.ReservedHourly >= it.OnDemandHourly:
		return fmt.Errorf("pricing: %s: reserved rate %v must beat on-demand %v",
			it.Name, it.ReservedHourly, it.OnDemandHourly)
	case it.PeriodHours <= 0:
		return fmt.Errorf("pricing: %s: period %d must be positive", it.Name, it.PeriodHours)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Alpha returns the reservation discount alpha = reserved hourly rate /
// on-demand hourly rate, the paper's key per-type constant.
func (it InstanceType) Alpha() float64 {
	return it.ReservedHourly / it.OnDemandHourly
}

// Theta returns theta = C/R where C = p*T is the largest possible
// on-demand spend over a full reservation period (demand in every hour).
// The paper measures theta in (1, 4] for all 1-year standard Linux
// US-East instances.
func (it InstanceType) Theta() float64 {
	return it.OnDemandHourly * float64(it.PeriodHours) / it.Upfront
}

// BreakEvenHours returns the paper's break-even working time
//
//	beta_k = k * a * R / (p * (1 - alpha))
//
// for a selling checkpoint at fraction k of the period and a selling
// discount a. An instance whose working time over the elapsed k*T hours
// is below beta_k is cheaper to sell.
func (it InstanceType) BreakEvenHours(k, sellingDiscount float64) float64 {
	alpha := it.Alpha()
	return k * sellingDiscount * it.Upfront / (it.OnDemandHourly * (1 - alpha))
}

// FullPeriodReservedCost returns the total cost of holding the
// reservation for its entire period with demand in every hour:
// R + alpha*p*T.
func (it InstanceType) FullPeriodReservedCost() float64 {
	return it.Upfront + it.ReservedHourly*float64(it.PeriodHours)
}

// Plans expands the price card into the four purchasable plans of
// Table I. The No-Upfront and All-Upfront rows are derived from the
// partial-upfront card using Amazon's typical spreads (no-upfront
// costs ~17% more per effective hour than all-upfront; all-upfront
// saves ~2% over partial): they exist so the Table I reproduction can
// print all four rows, while the algorithms consume only the
// partial-upfront quantities the paper uses.
func (it InstanceType) Plans() []Plan {
	period := float64(it.PeriodHours)
	partialTotal := it.Upfront + it.ReservedHourly*period
	partialEffective := partialTotal / period

	allUpTotal := partialTotal * 0.98
	noUpEffective := partialEffective * 1.17

	return []Plan{
		{
			Option:  NoUpfront,
			Upfront: 0,
			Monthly: noUpEffective * HoursPerMonth,
			Hourly:  noUpEffective,
		},
		{
			Option:  PartialUpfront,
			Upfront: it.Upfront,
			Monthly: it.ReservedHourly * HoursPerMonth,
			Hourly:  partialEffective,
		},
		{
			Option:  AllUpfront,
			Upfront: allUpTotal,
			Monthly: 0,
			Hourly:  allUpTotal / period,
		},
		{
			Option: OnDemand,
			Hourly: it.OnDemandHourly,
		},
	}
}
