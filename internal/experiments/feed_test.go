package experiments

// Tests for cohortFeed, the synthesis that runs as job 0 of the fan-out
// that plans it. Run under -race in CI, they pin that a streamed cohort
// and its plans equal the serial synthesize-then-plan oracle at any
// worker count, and that a cancelled or panicking synthesis releases
// every waiting user: the fan-out returns the context's error or a
// *JobPanicError, never hangs and leaks no goroutine.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rimarket/internal/core"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// feedParallelisms is the worker-count axis of the feed suite: one
// worker (synthesis finishes before any user is planned), two (one
// synthesizes while the other plans) and more workers than cores.
var feedParallelisms = []int{1, 2, 8}

// planSerial is the oracle the streamed fan-outs must reproduce: the
// whole cohort synthesized at the given horizon first, then every user
// planned in cohort order.
func planSerial(t *testing.T, cfg Config, hours int) []PlannedUser {
	t.Helper()
	traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: cfg.PerGroup, Hours: hours, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	users := make([]PlannedUser, len(traces))
	for i, tr := range traces {
		behavior := purchasing.Behaviors[i%len(purchasing.Behaviors)]
		planner, err := purchasing.ForBehavior(behavior, cfg.Instance, cfg.Seed^int64(i))
		if err != nil {
			t.Fatal(err)
		}
		newRes, err := purchasing.PlanReservations(tr.Demand, cfg.Instance.PeriodHours, planner)
		if err != nil {
			t.Fatal(err)
		}
		u := PlannedUser{Trace: tr, Behavior: behavior, NewRes: newRes, firstRes: -1}
		for h, n := range newRes {
			if n > 0 && u.firstRes < 0 {
				u.firstRes = h
			}
			u.Reserved += n
		}
		users[i] = u
	}
	return users
}

// hookNextTrace routes the feed's draws through fn, which sees the
// draw's index and may cancel or panic; the real generator runs
// after it. The hook is removed when the test ends.
func hookNextTrace(t *testing.T, fn func(i int)) {
	t.Helper()
	orig := nextTrace
	var draws int
	nextTrace = func(g *workload.CohortGenerator) workload.Trace {
		fn(draws) // draws run only in job 0, one at a time
		draws++
		return orig(g)
	}
	t.Cleanup(func() { nextTrace = orig })
}

// TestCohortFeedPlanOracle: NewCohortPlan's streamed users — traces,
// behaviors, reservation schedules and first-reservation hours — equal
// the serial oracle's at every worker count.
func TestCohortFeedPlanOracle(t *testing.T) {
	cfg := TestScaleConfig()
	want := planSerial(t, cfg, cfg.Hours)
	for _, par := range feedParallelisms {
		cfg.Parallelism = par
		p, err := NewCohortPlan(context.Background(), cfg)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if !reflect.DeepEqual(p.users, want) {
			t.Fatalf("par=%d: streamed plan differs from the serial synthesize-then-plan oracle", par)
		}
	}
}

// TestCohortFeedAuditOracle: RatioAudit draws the serial oracle's
// two-period cohort in order, and replays every user exactly once
// with the oracle's reservation schedule for that user.
func TestCohortFeedAuditOracle(t *testing.T) {
	cfg := TestScaleConfig()
	want := planSerial(t, cfg, 2*cfg.Instance.PeriodHours)
	for _, par := range feedParallelisms {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			var drawn []workload.Trace
			origNext := nextTrace
			nextTrace = func(g *workload.CohortGenerator) workload.Trace {
				tr := origNext(g)
				drawn = append(drawn, tr)
				return tr
			}
			var mu sync.Mutex
			replayed := make([][]int, len(want))
			origTotals := simulateTotals
			simulateTotals = func(s *simulate.Scratch, demand, newRes []int, ec simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
				u := slices.IndexFunc(want, func(pu PlannedUser) bool { return slices.Equal(pu.Trace.Demand, demand) })
				mu.Lock()
				if u < 0 || replayed[u] != nil {
					mu.Unlock()
					return simulate.Totals{}, fmt.Errorf("replayed demand matches oracle user %d, or that user twice", u)
				}
				replayed[u] = slices.Clone(newRes)
				mu.Unlock()
				return origTotals(s, demand, newRes, ec, pol)
			}
			defer func() { nextTrace, simulateTotals = origNext, origTotals }()

			cfg := cfg
			cfg.Parallelism = par
			if _, err := RatioAudit(context.Background(), cfg, core.FractionT2); err != nil {
				t.Fatal(err)
			}
			if len(drawn) != len(want) {
				t.Fatalf("drew %d traces, want %d", len(drawn), len(want))
			}
			for i, pu := range want {
				if !reflect.DeepEqual(drawn[i], pu.Trace) {
					t.Fatalf("draw %d (%s) differs from the oracle's %s", i, drawn[i].User, pu.Trace.User)
				}
				if !reflect.DeepEqual(replayed[i], pu.NewRes) {
					t.Fatalf("user %d replayed with a plan other than the oracle's", i)
				}
			}
		})
	}
}

// feedDrivers are the fan-outs that synthesize their cohort as job 0.
func feedDrivers() []struct {
	name string
	run  func(ctx context.Context, cfg Config) error
} {
	return []struct {
		name string
		run  func(ctx context.Context, cfg Config) error
	}{
		{"plan", func(ctx context.Context, cfg Config) error {
			_, err := NewCohortPlan(ctx, cfg)
			return err
		}},
		{"audit", func(ctx context.Context, cfg Config) error {
			_, err := RatioAudit(ctx, cfg, core.FractionT2)
			return err
		}},
		{"market", func(ctx context.Context, cfg Config) error {
			_, err := RunMarketScenario(ctx, MarketScenario{Base: cfg, Cards: []pricing.InstanceType{cfg.Instance}})
			return err
		}},
	}
}

// runWithin runs fn and fails the test if it has not returned within
// the deadline: a waiter left blocked on a synthesis that will never
// publish shows up here as a hang.
func runWithin(t *testing.T, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("fan-out still running after %v: a planning job is waiting on a trace that never comes", d)
		return nil
	}
}

// TestCohortFeedCancelMidSynthesis cancels ctx a few users into the
// synthesis: the fan-out returns the context's error, draws no trace
// after the cancel — so it returns before synthesis would have
// finished — and leaks no goroutine.
func TestCohortFeedCancelMidSynthesis(t *testing.T) {
	const cancelAt = 5
	cfg := TestScaleConfig()
	baseline := runtime.NumGoroutine()
	for _, d := range feedDrivers() {
		for _, par := range feedParallelisms {
			t.Run(fmt.Sprintf("%s/par=%d", d.name, par), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var draws atomic.Int64
				hookNextTrace(t, func(i int) {
					draws.Add(1)
					if i == cancelAt-1 {
						time.Sleep(20 * time.Millisecond) // let the planning jobs park on later traces
						cancel()
					}
				})
				cfg := cfg
				cfg.Parallelism = par
				err := runWithin(t, 20*time.Second, func() error { return d.run(ctx, cfg) })
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if n := draws.Load(); n != cancelAt {
					t.Errorf("synthesis drew %d traces, want it to stop at the cancel after %d of %d", n, cancelAt, 3*cfg.PerGroup)
				}
			})
		}
	}
	settleGoroutines(t, baseline)
}

// TestCohortFeedSynthesisPanic: a panic in job 0's draw reaches the
// caller as a *JobPanicError for job 0, carrying the panic value, and
// releases every planning job that waits on the traces it never drew.
func TestCohortFeedSynthesisPanic(t *testing.T) {
	cfg := TestScaleConfig()
	baseline := runtime.NumGoroutine()
	for _, d := range feedDrivers() {
		for _, par := range feedParallelisms {
			t.Run(fmt.Sprintf("%s/par=%d", d.name, par), func(t *testing.T) {
				hookNextTrace(t, func(i int) {
					if i == 4 {
						time.Sleep(20 * time.Millisecond) // let the planning jobs park on later traces
						panic("synthesis bug")
					}
				})
				cfg := cfg
				cfg.Parallelism = par
				err := runWithin(t, 20*time.Second, func() error { return d.run(context.Background(), cfg) })
				var pe *JobPanicError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v, want *JobPanicError", err)
				}
				if pe.Index != 0 || pe.Value != "synthesis bug" || len(pe.Stack) == 0 {
					t.Errorf("panic error = {Index: %d, Value: %v, %d stack bytes}, want job 0's synthesis bug with its stack", pe.Index, pe.Value, len(pe.Stack))
				}
			})
		}
	}
	settleGoroutines(t, baseline)
}

// TestCohortFeedUserPanicIndex: a panic while auditing user 7 — job 8
// of the fan-out — still reports Index 7, the user's own index.
func TestCohortFeedUserPanicIndex(t *testing.T) {
	cfg := smallConfig()
	hookAuditEngine(t, cfg, func(user int) error {
		if user == 7 {
			panic("engine bug")
		}
		return nil
	})
	for _, par := range feedParallelisms {
		cfg.Parallelism = par
		_, err := RatioAudit(context.Background(), cfg, core.FractionT2)
		var pe *JobPanicError
		if !errors.As(err, &pe) || pe.Index != 7 || pe.Value != "engine bug" {
			t.Fatalf("par=%d: err = %v, want user 7's *JobPanicError", par, err)
		}
	}
}
