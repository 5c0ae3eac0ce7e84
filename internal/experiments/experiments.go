// Package experiments reproduces the paper's evaluation (Section VI):
// it synthesizes the 300-user cohort, imitates reservation behavior
// with the four purchasing algorithms, replays every selling policy
// through the cost engine, and renders each of the paper's tables and
// figures (Table I-III, Fig. 2-4) plus the reproduction's extra
// ablation sweeps.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"rimarket/internal/core"
	"rimarket/internal/pricing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// Policy names used as keys in per-user cost maps.
const (
	PolicyKeep    = "Keep-Reserved"
	PolicyA3T4    = "A_{3T/4}"
	PolicyAT2     = "A_{T/2}"
	PolicyAT4     = "A_{T/4}"
	PolicySell3T4 = "All-Selling@3T/4"
	PolicySellT2  = "All-Selling@T/2"
	PolicySellT4  = "All-Selling@T/4"
)

// SellingPolicies lists the online algorithms in presentation order.
var SellingPolicies = []string{PolicyA3T4, PolicyAT2, PolicyAT4}

// Config parameterizes one cohort experiment.
type Config struct {
	// Instance is the price card; the paper uses d2.xlarge. Its
	// PeriodHours may be scaled down from a year for fast runs — the
	// break-even math is scale-free.
	Instance pricing.InstanceType
	// SellingDiscount is the seller's listing discount a.
	SellingDiscount float64
	// MarketFee is the marketplace's cut of sale income (0 matches the
	// paper's Eq. (1); 0.12 models Amazon's fee).
	MarketFee float64
	// PerGroup is the number of users per fluctuation group (paper: 100).
	PerGroup int
	// Hours is the simulation horizon (paper: one reservation period).
	Hours int
	// Seed makes the cohort and the random purchasing behavior
	// reproducible.
	Seed int64
	// Parallelism bounds the worker goroutines evaluating users
	// concurrently; 0 means GOMAXPROCS. Results are identical at any
	// parallelism: every user's work is seeded independently and results
	// are returned in cohort order.
	Parallelism int
	// SpillDir, when non-empty, streams each fully-completed grid cell
	// to a resumable on-disk store under SpillDir/<grid-label>
	// (internal/gridstore), so an interrupted sweep can continue
	// instead of restarting. Like Parallelism, it is execution
	// plumbing: it changes no result and is excluded from the grid's
	// config hash.
	SpillDir string
	// Resume makes RunGrid load the valid cells already present in
	// SpillDir — validated against the grid's config hash, seed, and
	// cell list — and recompute only the missing or invalid ones.
	// Requires SpillDir.
	Resume bool
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Instance.Validate(); err != nil {
		return err
	}
	if c.SellingDiscount < 0 || c.SellingDiscount > 1 {
		return fmt.Errorf("experiments: selling discount %v outside [0, 1]", c.SellingDiscount)
	}
	if c.PerGroup <= 0 {
		return fmt.Errorf("experiments: PerGroup %d must be positive", c.PerGroup)
	}
	if c.Hours <= 0 {
		return fmt.Errorf("experiments: Hours %d must be positive", c.Hours)
	}
	if c.Resume && c.SpillDir == "" {
		return fmt.Errorf("experiments: Resume requires SpillDir")
	}
	return nil
}

// DefaultConfig returns the paper's settings at full scale: d2.xlarge,
// a = 0.8, 100 users per group, a one-year horizon.
func DefaultConfig() Config {
	return Config{
		Instance:        pricing.D2XLarge(),
		SellingDiscount: 0.8,
		PerGroup:        100,
		Hours:           pricing.HoursPerYear,
		Seed:            2018, // the paper's publication year; any fixed seed works
	}
}

// TestScaleConfig returns a smaller configuration (scaled period and
// cohort) that preserves every shape the paper reports while running in
// well under a second; used by tests, benches and the quickstart.
func TestScaleConfig() Config {
	it := pricing.D2XLarge()
	// Scale the year down to 60 days, shrinking the upfront fee by the
	// same factor so alpha and theta (and hence break-evens and bounds)
	// are unchanged.
	scale := 6.0
	it.PeriodHours = int(float64(pricing.HoursPerYear) / scale)
	it.Upfront /= scale
	return Config{
		Instance:        it,
		SellingDiscount: 0.8,
		PerGroup:        30,
		Hours:           it.PeriodHours,
		Seed:            2018,
	}
}

// UserResult is one user's outcome across all selling policies.
type UserResult struct {
	// User names the synthetic user.
	User string
	// Group is the user's demand-fluctuation band.
	Group workload.Group
	// Fluctuation is the user's sigma/mu.
	Fluctuation float64
	// Behavior is the purchasing algorithm that imitated the user's
	// reservations (assigned round-robin across the cohort).
	Behavior string
	// Reserved is the total number of instances the behavior reserved.
	Reserved int
	// Costs maps policy name to the run's total cost (Eq. 1).
	Costs map[string]float64
	// Normalized maps policy name to cost / Keep-Reserved cost.
	Normalized map[string]float64
	// Sold maps policy name to the number of instances sold.
	Sold map[string]int
}

// CohortResult is a completed cohort experiment.
type CohortResult struct {
	// Config echoes the experiment's parameters.
	Config Config
	// Users holds one result per user, in cohort order.
	Users []UserResult
}

// RunCohort executes the full pipeline: cohort synthesis, reservation
// planning, one Keep-Reserved trunk per user and one resumed engine
// run per (user, selling policy). Cancelling
// ctx drains in-flight engine runs and surfaces an error satisfying
// errors.Is(err, context.Canceled).
//
// RunCohort and the other package-level drivers are NewCohortPlan plus
// the *CohortPlan method of the same name. They stay only while the
// perfbench suite calls them; new callers build one plan and call its
// methods.
func RunCohort(ctx context.Context, cfg Config) (*CohortResult, error) {
	plan, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return plan.Cohort(ctx)
}

// Cohort evaluates the paper's full policy set on the plan: one grid
// cell per selling policy, with the Keep-Reserved baseline coming from
// the grid's own trunks instead of a per-user rerun.
func (p *CohortPlan) Cohort(ctx context.Context) (*CohortResult, error) {
	cells, err := p.cohortCells()
	if err != nil {
		return nil, err
	}
	grid, err := p.RunGridNamed(ctx, "cohort", cells)
	if err != nil {
		return nil, err
	}
	// The grid's trunks filled the baseline cache; a grid resumed whole
	// from spill ran none, so this replays Keep-Reserved once.
	keeps, err := p.KeepStats(ctx, p.engineConfig())
	if err != nil {
		return nil, err
	}

	res := &CohortResult{Config: p.cfg, Users: make([]UserResult, len(p.users))}
	for i, u := range p.users {
		ur := UserResult{
			User:        u.Trace.User,
			Group:       workload.Classify(u.Trace),
			Fluctuation: u.Trace.FluctuationRatio(),
			Behavior:    u.Behavior,
			Reserved:    u.Reserved,
			Costs:       make(map[string]float64, len(cells)+1),
			Normalized:  make(map[string]float64, len(cells)+1),
			Sold:        make(map[string]int, len(cells)+1),
		}
		ur.Costs[PolicyKeep] = keeps[i].Total
		ur.Sold[PolicyKeep] = 0
		for c, cell := range cells {
			ur.Costs[cell.Name] = grid[c].Cost[i]
			ur.Sold[cell.Name] = grid[c].Sold[i]
		}
		keep := keeps[i].Total
		for name, cost := range ur.Costs {
			if keep != 0 {
				ur.Normalized[name] = cost / keep
			} else {
				ur.Normalized[name] = 1
			}
		}
		res.Users[i] = ur
	}
	return res, nil
}

// cohortCells is the cohort grid: one cell per selling policy of the
// paper's set, every one but Keep-Reserved, whose costs are the
// baseline itself.
func (p *CohortPlan) cohortCells() ([]Cell, error) {
	policies, err := buildPolicies(p.cfg)
	if err != nil {
		return nil, err
	}
	engCfg := p.engineConfig()
	cells := make([]Cell, 0, len(policies)-1)
	for _, np := range policies {
		if np.name != PolicyKeep {
			cells = append(cells, Cell{Name: np.name, Policy: np.policy, Engine: engCfg})
		}
	}
	return cells, nil
}

// namedPolicy pairs a selling policy with its presentation name.
type namedPolicy struct {
	name   string
	policy simulate.SellingPolicy
}

func buildPolicies(cfg Config) ([]namedPolicy, error) {
	a3, err := core.NewA3T4(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		return nil, err
	}
	a2, err := core.NewAT2(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		return nil, err
	}
	a4, err := core.NewAT4(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		return nil, err
	}
	s3, err := core.NewAllSelling(core.Fraction3T4)
	if err != nil {
		return nil, err
	}
	s2, err := core.NewAllSelling(core.FractionT2)
	if err != nil {
		return nil, err
	}
	s4, err := core.NewAllSelling(core.FractionT4)
	if err != nil {
		return nil, err
	}
	return []namedPolicy{
		{name: PolicyKeep, policy: core.KeepReserved{}},
		{name: PolicyA3T4, policy: a3},
		{name: PolicyAT2, policy: a2},
		{name: PolicyAT4, policy: a4},
		{name: PolicySell3T4, policy: s3},
		{name: PolicySellT2, policy: s2},
		{name: PolicySellT4, policy: s4},
	}, nil
}

// ByGroup partitions user results by fluctuation group.
func (r *CohortResult) ByGroup() map[workload.Group][]UserResult {
	out := make(map[workload.Group][]UserResult, 3)
	for _, u := range r.Users {
		out[u.Group] = append(out[u.Group], u)
	}
	return out
}

// NormalizedCosts extracts the normalized cost of one policy across a
// user slice.
func NormalizedCosts(users []UserResult, policy string) []float64 {
	out := make([]float64, 0, len(users))
	for _, u := range users {
		out = append(out, u.Normalized[policy])
	}
	return out
}

// MostVolatileUser returns the user with the highest sigma/mu — the
// paper's Table II subject.
func (r *CohortResult) MostVolatileUser() (UserResult, error) {
	if len(r.Users) == 0 {
		return UserResult{}, fmt.Errorf("experiments: empty cohort")
	}
	// Among users who actually reserved something (a user with no
	// reservations has identical costs under every selling policy).
	candidates := make([]UserResult, 0, len(r.Users))
	for _, u := range r.Users {
		if u.Reserved > 0 {
			candidates = append(candidates, u)
		}
	}
	if len(candidates) == 0 {
		candidates = r.Users
	}
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].Fluctuation > candidates[j].Fluctuation
	})
	return candidates[0], nil
}

// ExtremeVolatileUser returns the paper's Table II subject: the
// volatile user for whom early selling backfires the most (largest
// A_{T/4} cost relative to A_{3T/4}). When no such inversion exists in
// the cohort — it requires a small selling discount, see EXPERIMENTS.md
// — it falls back to the most volatile user.
func (r *CohortResult) ExtremeVolatileUser() (UserResult, error) {
	best := -1
	var bestGap float64
	for i, u := range r.Users {
		if u.Group != workload.GroupVolatile || u.Reserved == 0 {
			continue
		}
		gap := u.Normalized[PolicyAT4] - u.Normalized[PolicyA3T4]
		if gap > bestGap {
			bestGap = gap
			best = i
		}
	}
	if best >= 0 {
		return r.Users[best], nil
	}
	return r.MostVolatileUser()
}
