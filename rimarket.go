// Package rimarket is a Go reproduction of "To Sell or Not To Sell:
// Trading Your Reserved Instances in Amazon EC2 Marketplace"
// (Yang, Pan, Wang, Liu — ICDCS 2018).
//
// It provides the paper's online reserved-instance selling algorithms
// A_{3T/4}, A_{T/2} and A_{T/4} (and their generalization A_{kT}), the
// per-instance optimal offline benchmark, the competitive-ratio theory,
// and every substrate the evaluation needs: an EC2 pricing catalog, an
// hourly cost-simulation engine, reservation-purchasing behaviors, a
// reserved-instance marketplace simulator, demand-trace generators and
// parsers, and drivers that regenerate each of the paper's tables and
// figures.
//
// # Quick start
//
// Decide whether to sell one reserved d2.xlarge whose first three
// quarters you have observed:
//
//	it := rimarket.D2XLarge()
//	policy, err := rimarket.NewA3T4(it, 0.8) // list at 80% of prorated upfront
//	if err != nil { ... }
//	sell := policy.ShouldSell(rimarket.Checkpoint{
//	    Worked: workedHours, // hours the instance served demand so far
//	})
//
// Replay a whole demand trace through purchasing and selling:
//
//	plan, err := rimarket.PlanReservations(demand, it.PeriodHours, rimarket.AllReserved{})
//	res, err := rimarket.Run(demand, plan, rimarket.SimConfig{
//	    Instance:        it,
//	    SellingDiscount: 0.8,
//	}, policy)
//	fmt.Println(res.Cost.Total())
//
// Regenerate the paper's evaluation:
//
//	cohort, err := rimarket.RunCohort(rimarket.TestScaleConfig())
//	fmt.Println(rimarket.RenderTable3(rimarket.Table3(cohort)))
package rimarket

import (
	"context"

	"rimarket/internal/analysis"
	"rimarket/internal/core"
	"rimarket/internal/experiments"
	"rimarket/internal/gtrace"
	"rimarket/internal/marketplace"
	"rimarket/internal/portfolio"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// Pricing substrate.
type (
	// InstanceType is one EC2 instance type's 1-year price card.
	InstanceType = pricing.InstanceType
	// Catalog is a set of instance-type price cards.
	Catalog = pricing.Catalog
	// Plan is one purchasable configuration (payment option + fees).
	Plan = pricing.Plan
	// PaymentOption enumerates reserved payment options and on-demand.
	PaymentOption = pricing.PaymentOption
)

// Payment options (Table I).
const (
	NoUpfront      = pricing.NoUpfront
	PartialUpfront = pricing.PartialUpfront
	AllUpfront     = pricing.AllUpfront
	OnDemand       = pricing.OnDemand
)

// HoursPerYear is the hour count of a 1-year reservation term.
const HoursPerYear = pricing.HoursPerYear

// StandardCatalog returns the curated catalog of 1-year standard
// (Linux, US East) instance prices as of January 2018.
func StandardCatalog() *Catalog { return pricing.StandardLinuxUSEast() }

// D2XLarge returns the paper's running-example price card (Table I).
func D2XLarge() InstanceType { return pricing.D2XLarge() }

// NewCatalog builds a validated catalog from price cards.
func NewCatalog(types []InstanceType) (*Catalog, error) { return pricing.NewCatalog(types) }

// Selling algorithms (the paper's contribution).
type (
	// Threshold is the generalized online selling algorithm A_{kT}.
	Threshold = core.Threshold
	// AllSelling is the benchmark that sells every instance at its
	// checkpoint.
	AllSelling = core.AllSelling
	// KeepReserved is the benchmark that never sells.
	KeepReserved = core.KeepReserved
	// SellingPolicy decides whether to sell an instance at its checkpoint.
	SellingPolicy = simulate.SellingPolicy
	// Checkpoint is the information a selling policy sees.
	Checkpoint = simulate.Checkpoint
)

// Checkpoint fractions of the paper's three algorithms.
const (
	Fraction3T4 = core.Fraction3T4
	FractionT2  = core.FractionT2
	FractionT4  = core.FractionT4
)

// NewA3T4 builds the paper's primary algorithm A_{3T/4} (Algorithm 1).
func NewA3T4(it InstanceType, sellingDiscount float64) (Threshold, error) {
	return core.NewA3T4(it, sellingDiscount)
}

// NewAT2 builds A_{T/2} (Algorithm 2).
func NewAT2(it InstanceType, sellingDiscount float64) (Threshold, error) {
	return core.NewAT2(it, sellingDiscount)
}

// NewAT4 builds A_{T/4} (Section V).
func NewAT4(it InstanceType, sellingDiscount float64) (Threshold, error) {
	return core.NewAT4(it, sellingDiscount)
}

// NewThreshold builds the generalized A_{kT} for any checkpoint
// fraction in (0, 1).
func NewThreshold(it InstanceType, sellingDiscount, fraction float64) (Threshold, error) {
	return core.NewThreshold(it, sellingDiscount, fraction)
}

// NewAllSelling builds the All-Selling benchmark at a checkpoint
// fraction.
func NewAllSelling(fraction float64) (AllSelling, error) { return core.NewAllSelling(fraction) }

// Offline optimum (Section IV.A).
type (
	// OfflineParams configures the per-instance offline optimum.
	OfflineParams = core.OfflineParams
	// OfflineDecision is the offline optimum's outcome.
	OfflineDecision = core.OfflineDecision
	// Billing selects how reserved hours are charged in per-instance
	// accounting.
	Billing = core.Billing
)

// Billing modes.
const (
	BillWhenUsed    = core.BillWhenUsed
	BillWhileActive = core.BillWhileActive
)

// OptimalSell computes the optimal offline selling decision for one
// instance's busy schedule.
func OptimalSell(schedule []bool, params OfflineParams) (OfflineDecision, error) {
	return core.OptimalSell(schedule, params)
}

// Simulation engine (Eq. 1 cost model).
type (
	// SimConfig parameterizes one engine run.
	SimConfig = simulate.Config
	// SimResult is a completed engine run.
	SimResult = simulate.Result
	// CostBreakdown decomposes a run's cost.
	CostBreakdown = simulate.CostBreakdown
	// HourRecord is the per-hour accounting row (d_t, n_t, r_t, o_t, s_t).
	HourRecord = simulate.HourRecord
	// InstanceRecord is one reserved instance's lifecycle.
	InstanceRecord = simulate.InstanceRecord
)

// Run replays a demand series against a reservation series under a
// selling policy and returns the cost and per-instance records.
func Run(demand, newRes []int, cfg SimConfig, policy SellingPolicy) (SimResult, error) {
	return simulate.Run(demand, newRes, cfg, policy)
}

// HourRows derives a run's per-hour accounting rows from its inputs,
// the reservation period and the run's Instances.
func HourRows(demand, newRes []int, periodHours int, instances []InstanceRecord) ([]HourRecord, error) {
	return simulate.HourRows(demand, newRes, periodHours, instances)
}

// Purchasing behaviors (Section VI.A).
type (
	// Purchaser decides how many instances to newly reserve each hour.
	Purchaser = purchasing.Policy
	// AllReserved reserves whenever demand exceeds active reservations.
	AllReserved = purchasing.AllReserved
	// WangOnline is the ICAC'13 online purchasing algorithm.
	WangOnline = purchasing.WangOnline
)

// NewRandomPurchaser returns the random reservation behavior.
func NewRandomPurchaser(seed int64) *purchasing.Random { return purchasing.NewRandom(seed) }

// NewWangOnline returns the ICAC'13 online purchasing policy.
func NewWangOnline(it InstanceType) *WangOnline { return purchasing.NewWangOnline(it) }

// NewWangVariant returns the ICAC'13 policy with a halved break-even.
func NewWangVariant(it InstanceType) *WangOnline { return purchasing.NewWangVariant(it) }

// PlanReservations replays demand through a purchasing policy and
// returns the per-hour new-reservation series.
func PlanReservations(demand []int, periodHours int, p Purchaser) ([]int, error) {
	return purchasing.PlanReservations(demand, periodHours, p)
}

// Competitive-ratio theory (Propositions 1-3).
type (
	// Bound is a proven competitive-ratio bound.
	Bound = analysis.Bound
	// Regime labels the binding proof case.
	Regime = analysis.Regime
)

// RatioA3T4 returns Proposition 1's bound (2 - alpha - a/4 at theta=4).
func RatioA3T4(alpha, a float64) (Bound, error) { return analysis.RatioA3T4(alpha, a) }

// RatioAT2 returns Propositions 2a/2b's bound.
func RatioAT2(alpha, a float64) (Bound, error) { return analysis.RatioAT2(alpha, a) }

// RatioAT4 returns Propositions 3a/3b's bound.
func RatioAT4(alpha, a float64) (Bound, error) { return analysis.RatioAT4(alpha, a) }

// RatioForFraction returns the generalized bound for A_{kT}.
func RatioForFraction(k, alpha, a, theta float64) (Bound, error) {
	return analysis.RatioForFraction(k, alpha, a, theta)
}

// VerifyBound checks a measured online/OPT ratio against the proven
// bound for one instance schedule. The selling discount a must equal
// policy.Discount(): online cost, OPT and bound are priced in one
// market, and a mismatched a returns an error.
func VerifyBound(schedule []bool, policy Threshold, a float64) (measured float64, bound Bound, err error) {
	return analysis.VerifyBound(schedule, policy, a)
}

// Marketplace simulator (Section III.B).
type (
	// Market is the deterministic, hour-stepped reserved-instance
	// order book.
	Market = marketplace.OrderBook
	// Listing is one reservation offered for sale.
	Listing = marketplace.BookListing
	// Sale records a completed purchase.
	Sale = marketplace.Trade
)

// AmazonFee is the marketplace service fee Amazon charges (12%).
const AmazonFee = marketplace.AmazonFee

// NewMarket returns an empty marketplace charging the given service
// fee (Amazon: AmazonFee).
func NewMarket(fee float64) (*Market, error) { return marketplace.NewOrderBook(fee) }

// Workload substrate.
type (
	// Trace is a per-user hourly demand series.
	Trace = workload.Trace
	// Group is a demand-fluctuation band (Fig. 2).
	Group = workload.Group
	// CohortConfig describes a synthetic user population.
	CohortConfig = workload.CohortConfig
	// Generator produces synthetic demand traces.
	Generator = workload.Generator
)

// Fluctuation groups.
const (
	GroupStable   = workload.GroupStable
	GroupModerate = workload.GroupModerate
	GroupVolatile = workload.GroupVolatile
)

// NewCohort synthesizes the experiment population (PerGroup users in
// each fluctuation band).
func NewCohort(cfg CohortConfig) ([]Trace, error) { return workload.NewCohort(cfg) }

// Classify returns a trace's fluctuation group.
func Classify(tr Trace) Group { return workload.Classify(tr) }

// Trace formats (Section VI.A's datasets).
type (
	// TaskEvent is one row of a Google cluster-usage task-events table.
	TaskEvent = gtrace.TaskEvent
	// InstanceCapacity converts resource requests to instance counts.
	InstanceCapacity = gtrace.InstanceCapacity
	// LoadReport is the structured outcome of a trace-directory load.
	LoadReport = gtrace.LoadReport
)

// AggregateByUser converts task events to per-user demand traces.
func AggregateByUser(events []TaskEvent, cap InstanceCapacity) ([]Trace, error) {
	return gtrace.AggregateByUser(events, cap)
}

// Portfolio management (multi-service adoption layer).
type (
	// Portfolio is a multi-service reservation portfolio evaluation.
	Portfolio = portfolio.Result
	// PortfolioService is one workload in a portfolio.
	PortfolioService = portfolio.Service
	// PortfolioConfig parameterizes a portfolio evaluation.
	PortfolioConfig = portfolio.Config
	// PortfolioServiceResult is one service's evaluation.
	PortfolioServiceResult = portfolio.ServiceResult
)

// EvaluatePortfolio plans reservations and runs the selling policy for
// every service in the portfolio.
func EvaluatePortfolio(services []PortfolioService, cfg PortfolioConfig) (Portfolio, error) {
	return portfolio.Evaluate(services, cfg)
}

// ListPortfolioOnMarket lists every sold reservation's remaining
// period on the market and returns the listing count.
func ListPortfolioOnMarket(m *Market, res Portfolio, discount float64) (int, error) {
	return portfolio.ListOnMarket(m, res, discount)
}

// Future-work extensions (Section VII).
type (
	// Randomized is the randomized online selling algorithm A_{rand}.
	Randomized = core.Randomized
	// MultiThreshold revisits the decision at several checkpoints.
	MultiThreshold = core.MultiThreshold
	// FractionDist draws per-instance checkpoint fractions.
	FractionDist = core.FractionDist
	// UniformFractions draws uniformly from [Lo, Hi].
	UniformFractions = core.UniformFractions
	// ExponentialFractions is the ski-rental e^x/(e-1) density.
	ExponentialFractions = core.ExponentialFractions
	// DiscreteFractions draws from a fixed set of fractions.
	DiscreteFractions = core.DiscreteFractions
)

// NewRandomized builds the randomized selling policy (the paper's
// stated future work), deterministic in the seed.
func NewRandomized(it InstanceType, sellingDiscount float64, dist FractionDist, seed int64) (Randomized, error) {
	return core.NewRandomized(it, sellingDiscount, dist, seed)
}

// NewMultiThreshold revisits the sell-or-keep decision at several
// checkpoint fractions.
func NewMultiThreshold(it InstanceType, sellingDiscount float64, fractions []float64) (MultiThreshold, error) {
	return core.NewMultiThreshold(it, sellingDiscount, fractions)
}

// NewPaperMultiThreshold builds MultiThreshold over T/4, T/2, 3T/4.
func NewPaperMultiThreshold(it InstanceType, sellingDiscount float64) (MultiThreshold, error) {
	return core.NewPaperMultiThreshold(it, sellingDiscount)
}

// Experiments (Section VI).
type (
	// ExperimentConfig parameterizes a cohort experiment.
	ExperimentConfig = experiments.Config
	// CohortResult is a completed cohort experiment.
	CohortResult = experiments.CohortResult
	// UserResult is one user's outcome across selling policies.
	UserResult = experiments.UserResult
	// Fig3Summary is one Fig. 3 panel.
	Fig3Summary = experiments.Fig3Summary
	// Table3Row is one Table III row.
	Table3Row = experiments.Table3Row
)

// DefaultConfig returns the paper's full-scale experiment settings.
func DefaultConfig() ExperimentConfig { return experiments.DefaultConfig() }

// TestScaleConfig returns the fast scaled-down experiment settings.
func TestScaleConfig() ExperimentConfig { return experiments.TestScaleConfig() }

// RunCohort executes the full evaluation pipeline. It is the
// non-cancellable convenience form; use RunCohortContext to wire in
// SIGINT/SIGTERM or timeouts.
func RunCohort(cfg ExperimentConfig) (*CohortResult, error) {
	//rilint:allow ctxrule -- documented back-compat facade for pre-PR3 callers; the cancellable form is RunCohortContext.
	return experiments.RunCohort(context.Background(), cfg)
}

// RunCohortContext is RunCohort with cancellation: cancelling ctx
// drains in-flight engine runs and returns an error satisfying
// errors.Is(err, context.Canceled).
func RunCohortContext(ctx context.Context, cfg ExperimentConfig) (*CohortResult, error) {
	return experiments.RunCohort(ctx, cfg)
}

// RunTraces executes the evaluation pipeline on externally supplied
// traces (e.g. real usage logs loaded with LoadEC2LogDir).
func RunTraces(cfg ExperimentConfig, traces []Trace) (*CohortResult, error) {
	//rilint:allow ctxrule -- documented back-compat facade for pre-PR3 callers; the cancellable form is RunTracesContext.
	return experiments.RunTraces(context.Background(), cfg, traces)
}

// RunTracesContext is RunTraces with cancellation.
func RunTracesContext(ctx context.Context, cfg ExperimentConfig, traces []Trace) (*CohortResult, error) {
	return experiments.RunTraces(ctx, cfg, traces)
}

// LoadEC2LogDir reads every EC2-usage-log file (.csv/.csv.gz) in a
// directory into demand traces. The report names the files that loaded
// cleanly and is returned even alongside an error.
func LoadEC2LogDir(dir string) ([]Trace, *LoadReport, error) { return gtrace.LoadEC2LogDir(dir) }

// Table3 computes the paper's Table III rows.
func Table3(r *CohortResult) []Table3Row { return experiments.Table3(r) }

// RenderTable3 renders Table III as text.
func RenderTable3(rows []Table3Row) string { return experiments.RenderTable3(rows) }
