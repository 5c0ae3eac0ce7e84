// Package portfolio manages reserved-instance decisions across several
// services at once — the layer a downstream cost-management tool would
// build on. Each service has its own instance type, demand trace and
// reservation habit; the portfolio evaluates a selling policy per
// service, aggregates the spend against the Keep-Reserved baseline, and
// can list every sold reservation's remaining period on a marketplace.
package portfolio

import (
	"errors"
	"fmt"

	"rimarket/internal/marketplace"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
)

// Service is one workload in the portfolio.
type Service struct {
	// Name identifies the service; it becomes the marketplace seller
	// name for its listings.
	Name string
	// Instance is the service's price card.
	Instance pricing.InstanceType
	// Demand is the service's hourly demand trace.
	Demand []int
	// Purchaser imitates the team's reservation habit. Nil defaults to
	// AllReserved (reserve to peak).
	Purchaser purchasing.Policy
}

// Validate reports whether the service is usable.
func (s Service) Validate() error {
	if s.Name == "" {
		return errors.New("portfolio: service has no name")
	}
	if err := s.Instance.Validate(); err != nil {
		return fmt.Errorf("portfolio: %s: %w", s.Name, err)
	}
	if len(s.Demand) == 0 {
		return fmt.Errorf("portfolio: %s: empty demand trace", s.Name)
	}
	for t, d := range s.Demand {
		if d < 0 {
			return fmt.Errorf("portfolio: %s: negative demand at hour %d", s.Name, t)
		}
	}
	return nil
}

// Config parameterizes a portfolio evaluation.
type Config struct {
	// SellingDiscount is the listing discount a applied by every service.
	SellingDiscount float64
	// MarketFee is the marketplace's cut of sale income.
	MarketFee float64
	// Policy builds the selling policy for a service's instance type.
	// Nil means Keep-Reserved everywhere (a pure baseline evaluation).
	Policy func(pricing.InstanceType) (simulate.SellingPolicy, error)
}

// ServiceResult is one service's evaluation.
type ServiceResult struct {
	// Name echoes the service.
	Name string
	// Instance echoes the service's price card.
	Instance pricing.InstanceType
	// Reserved is the number of instances the purchaser reserved.
	Reserved int
	// KeepCost is the Keep-Reserved baseline total.
	KeepCost float64
	// PolicyCost is the selling policy's total.
	PolicyCost float64
	// SoldInstances lists each sold instance's remaining hours at sale,
	// ready for marketplace listing.
	SoldInstances []int
}

// Savings returns KeepCost - PolicyCost.
func (r ServiceResult) Savings() float64 { return r.KeepCost - r.PolicyCost }

// Result is a completed portfolio evaluation.
type Result struct {
	// Services holds one result per service, in input order.
	Services []ServiceResult
}

// KeepTotal returns the portfolio-wide Keep-Reserved baseline.
func (r Result) KeepTotal() float64 {
	var total float64
	for _, s := range r.Services {
		total += s.KeepCost
	}
	return total
}

// PolicyTotal returns the portfolio-wide cost under the selling policy.
func (r Result) PolicyTotal() float64 {
	var total float64
	for _, s := range r.Services {
		total += s.PolicyCost
	}
	return total
}

// SavingsFraction returns 1 - PolicyTotal/KeepTotal (0 when the
// baseline is zero).
func (r Result) SavingsFraction() float64 {
	keep := r.KeepTotal()
	if keep == 0 {
		return 0
	}
	return 1 - r.PolicyTotal()/keep
}

// Evaluate plans reservations and runs the selling policy for every
// service. Both replays of every service run on one simulate.Scratch:
// the Keep-Reserved baseline needs only its totals, the policy its
// totals and per-instance records, so no per-hour rows are built.
func Evaluate(services []Service, cfg Config) (Result, error) {
	if len(services) == 0 {
		return Result{}, errors.New("portfolio: no services")
	}
	seen := make(map[string]bool, len(services))
	var (
		out     Result
		scratch simulate.Scratch
	)
	for _, svc := range services {
		if err := svc.Validate(); err != nil {
			return Result{}, err
		}
		if seen[svc.Name] {
			return Result{}, fmt.Errorf("portfolio: duplicate service %q", svc.Name)
		}
		seen[svc.Name] = true

		purchaser := svc.Purchaser
		if purchaser == nil {
			purchaser = purchasing.AllReserved{}
		}
		plan, err := purchasing.PlanReservations(svc.Demand, svc.Instance.PeriodHours, purchaser)
		if err != nil {
			return Result{}, fmt.Errorf("portfolio: %s: %w", svc.Name, err)
		}
		reserved := 0
		for _, n := range plan {
			reserved += n
		}

		engCfg := simulate.Config{
			Instance:        svc.Instance,
			SellingDiscount: cfg.SellingDiscount,
			MarketFee:       cfg.MarketFee,
		}
		keep, err := scratch.Totals(svc.Demand, plan, engCfg, simulate.KeepReserved{})
		if err != nil {
			return Result{}, fmt.Errorf("portfolio: %s: %w", svc.Name, err)
		}

		policy := simulate.SellingPolicy(simulate.KeepReserved{})
		if cfg.Policy != nil {
			policy, err = cfg.Policy(svc.Instance)
			if err != nil {
				return Result{}, fmt.Errorf("portfolio: %s: %w", svc.Name, err)
			}
		}
		// The records belong to the scratch, so they are read here,
		// before the next service's replays overwrite them.
		pol, recs, err := scratch.Replay(svc.Demand, plan, engCfg, policy)
		if err != nil {
			return Result{}, fmt.Errorf("portfolio: %s: %w", svc.Name, err)
		}

		sr := ServiceResult{
			Name:       svc.Name,
			Instance:   svc.Instance,
			Reserved:   reserved,
			KeepCost:   keep.Cost.Total(),
			PolicyCost: pol.Cost.Total(),
		}
		for _, inst := range recs {
			if inst.SoldAt < 0 {
				continue
			}
			sr.SoldInstances = append(sr.SoldInstances, inst.Start+svc.Instance.PeriodHours-inst.SoldAt)
		}
		out.Services = append(out.Services, sr)
	}
	return out, nil
}

// ListOnMarket lists every sold reservation's remaining period on the
// order book under the declining schedule at the given discount and
// returns the total number of listings created. Sellers are the
// service names.
func ListOnMarket(m *marketplace.OrderBook, res Result, discount float64) (int, error) {
	listed := 0
	for _, svc := range res.Services {
		for _, remaining := range svc.SoldInstances {
			if _, err := m.ListDeclining(svc.Name, svc.Instance, remaining, discount); err != nil {
				return listed, fmt.Errorf("portfolio: list %s: %w", svc.Name, err)
			}
			listed++
		}
	}
	return listed, nil
}
