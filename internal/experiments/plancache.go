package experiments

import (
	"context"
	"fmt"
	"sync"

	"rimarket/internal/obs"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// PlannedUser is one cohort member with its reservation plan resolved.
type PlannedUser struct {
	// Trace is the user's demand series, fitted to the config horizon.
	Trace workload.Trace
	// Behavior is the purchasing imitator assigned to the user.
	Behavior string
	// NewRes is the hourly reservation schedule the behavior produced.
	NewRes []int
	// Reserved is the total number of instances reserved.
	Reserved int
	// firstRes is the hour of the first reservation, -1 if none: the
	// t0 of simulate.ForkHour.
	firstRes int
}

// KeepStat is one user's Keep-Reserved baseline: the quantities every
// driver normalizes against or derives secondary baselines from.
type KeepStat struct {
	// Total is the Keep-Reserved run's total cost (Eq. 1).
	Total float64
	// IdleHours counts reserved hours that served no demand (the
	// hour-reselling baseline's income source).
	IdleHours int
}

// CohortPlan is the shared substrate of every cohort experiment: the
// traces, the per-user reservation plans, and cached Keep-Reserved
// baselines. Sweeps and grids that differ only in selling parameters
// reuse one plan instead of re-synthesizing and re-planning per cell —
// reservation decisions never depend on the selling side (the paper's
// pipeline fixes them before any selling is considered).
//
// A plan is safe for concurrent use.
type CohortPlan struct {
	cfg   Config
	users []PlannedUser

	mu sync.Mutex
	// keeps caches baselines per price card. Keep-Reserved never sells,
	// so its cost is independent of the selling discount and market fee;
	// only the instance card matters (pinned by tests in runner_test.go).
	keeps map[pricing.InstanceType][]KeepStat

	// traced marks a plan built by PlanTraces; digestOnce guards
	// digest, its inputsDigest.
	traced     bool
	digestOnce sync.Once
	digest     string
}

// NewCohortPlan synthesizes the config's cohort and plans every user's
// reservations once, fanning the planning out over Config.Parallelism
// workers (results are identical at any worker count: each user's
// behavior is seeded from its cohort index). Synthesis runs as the
// fan-out's first job, so users are planned as soon as they are drawn.
// Cancelling ctx stops synthesis at the next user, drains the
// in-flight planning jobs and returns the context's error.
func NewCohortPlan(ctx context.Context, cfg Config) (*CohortPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	feed, err := synthFeed(cfg, cfg.Hours)
	if err != nil {
		return nil, err
	}
	return newPlan(ctx, cfg, feed)
}

// PlanTraces builds a plan from externally supplied traces (e.g. real
// EC2 usage logs). Each trace is clipped or zero-padded to cfg.Hours;
// cfg.PerGroup is ignored.
func PlanTraces(ctx context.Context, cfg Config, traces []workload.Trace) (*CohortPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("experiments: no traces")
	}
	fitted := make([]workload.Trace, len(traces))
	for i, tr := range traces {
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		fitted[i] = tr.Fit(cfg.Hours)
	}
	p, err := newPlan(ctx, cfg, filledFeed(fitted))
	if err != nil {
		return nil, err
	}
	p.traced = true
	return p, nil
}

// newPlan plans every user of feed, synthesizing the cohort first if
// the feed has not yet done so, inside a "plan" span.
func newPlan(ctx context.Context, cfg Config, feed *cohortFeed) (*CohortPlan, error) {
	sp := obs.StartSpan(ctx, "plan")
	defer sp.End()
	p := &CohortPlan{
		cfg:   cfg,
		users: make([]PlannedUser, feed.Len()),
		keeps: make(map[pricing.InstanceType][]KeepStat),
	}
	// Each worker plans on its own purchasers, which die with the
	// fan-out; every user's plan is its own, for the plan keeps it.
	planners := make([]purchasing.Planners, workerCount(cfg.Parallelism, feed.Len()+1))
	err := feed.run(ctx, cfg.Parallelism, func(w, i int, tr workload.Trace) (err error) {
		p.users[i], err = planUser(cfg, i, tr, &planners[w], make([]int, tr.Len()))
		return err
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// planUser plans the reservations of the cohort's i-th user on a
// fan-out worker's planners, writing the schedule into newRes, which
// is as long as the trace and becomes the user's NewRes. The
// purchasing behavior and its seed come from i alone, so a cohort's
// plans depend on the order of its users: synthesis fixes that order,
// and the trace loader sorts real users by name. The planners' state
// left by the worker's previous user never reaches the plan.
func planUser(cfg Config, i int, tr workload.Trace, planners *purchasing.Planners, newRes []int) (PlannedUser, error) {
	behavior := purchasing.Behaviors[i%len(purchasing.Behaviors)]
	planner, err := planners.For(behavior, cfg.Instance, cfg.Seed^int64(i))
	if err != nil {
		return PlannedUser{}, err
	}
	if err := purchasing.PlanReservationsInto(newRes, tr.Demand, cfg.Instance.PeriodHours, planner); err != nil {
		return PlannedUser{}, fmt.Errorf("experiments: user %s: %w", tr.User, err)
	}
	reserved, firstRes := 0, -1
	for t, n := range newRes {
		if n > 0 && firstRes < 0 {
			firstRes = t
		}
		reserved += n
	}
	return PlannedUser{Trace: tr, Behavior: behavior, NewRes: newRes, Reserved: reserved, firstRes: firstRes}, nil
}

// Config returns the plan's experiment configuration.
func (p *CohortPlan) Config() Config { return p.cfg }

// Len returns the number of planned users.
func (p *CohortPlan) Len() int { return len(p.users) }

// Users returns the planned users in cohort order. The slice is shared;
// callers must not mutate it.
func (p *CohortPlan) Users() []PlannedUser { return p.users }

// KeepStats returns each user's Keep-Reserved baseline under the given
// engine configuration, computing it at most once per price card (see
// the cache invariant on CohortPlan.keeps). A grid's trunks fill the
// cache for every card they replay, so after a grid this is a cache
// hit; otherwise it runs the trunks without resume points. A cancelled
// or failed computation is never cached.
func (p *CohortPlan) KeepStats(ctx context.Context, engCfg simulate.Config) ([]KeepStat, error) {
	m := obs.FromContext(ctx)
	p.mu.Lock()
	cached, ok := p.keeps[engCfg.Instance]
	p.mu.Unlock()
	if ok {
		if m != nil {
			m.BaselineHits.Add(1)
		}
		return cached, nil
	}
	if m != nil {
		engCfg.Metrics = m.EngineHook()
	}
	scratch := make([]simulate.Scratch, workerCount(p.cfg.Parallelism, len(p.users)))
	keeps, _, err := p.runTrunks(ctx, []simulate.Config{engCfg}, [][]int{nil}, scratch)
	if err != nil {
		return nil, err
	}
	return keeps[0], nil
}

// engineConfig is the engine configuration the plan's own experiment
// parameters imply.
func (p *CohortPlan) engineConfig() simulate.Config {
	return simulate.Config{
		Instance:        p.cfg.Instance,
		SellingDiscount: p.cfg.SellingDiscount,
		MarketFee:       p.cfg.MarketFee,
	}
}
