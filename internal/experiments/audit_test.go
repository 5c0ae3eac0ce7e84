package experiments

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"rimarket/internal/analysis"
	"rimarket/internal/core"
	"rimarket/internal/obs"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

func TestRatioAudit(t *testing.T) {
	cfg := smallConfig()
	res, err := RatioAudit(context.Background(), cfg, core.FractionT2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Audited == 0 {
		t.Fatal("nothing audited")
	}
	if res.MaxMeasured > res.Bound.Ratio+1e-9 {
		t.Errorf("max measured %v exceeds bound %v", res.MaxMeasured, res.Bound.Ratio)
	}
	if res.MeanMeasured < 1-1e-9 {
		t.Errorf("mean measured %v below 1 (online cannot beat OPT)", res.MeanMeasured)
	}
	if res.MaxMeasured < res.MeanMeasured {
		t.Errorf("max %v below mean %v", res.MaxMeasured, res.MeanMeasured)
	}
	out := RenderAudit([]AuditResult{res})
	if !strings.Contains(out, "A_{T/2}") || !strings.Contains(out, "bound") {
		t.Errorf("render:\n%s", out)
	}
}

func TestRatioAuditValidation(t *testing.T) {
	cfg := smallConfig()
	if _, err := RatioAudit(context.Background(), cfg, 0); err == nil {
		t.Error("invalid fraction accepted")
	}
	bad := cfg
	bad.PerGroup = 0
	if _, err := RatioAudit(context.Background(), bad, 0.5); err == nil {
		t.Error("bad config accepted")
	}
}

func TestRenderAuditGenericFraction(t *testing.T) {
	out := RenderAudit([]AuditResult{{Fraction: 0.3, Audited: 1, MeanMeasured: 1, MaxMeasured: 1}})
	if !strings.Contains(out, "A_{0.3T}") {
		t.Errorf("render:\n%s", out)
	}
}

// ratioAuditSerial is the audit's serial loop, kept as the reference
// the fanned-out RatioAudit must reproduce exactly: users in cohort
// order, one accumulator, the first failing user's error. It replays
// each user through simulate.Run rather than a reused Scratch, so it
// stays independent of the engine path the audit takes.
func ratioAuditSerial(ctx context.Context, cfg Config, fraction float64) (AuditResult, error) {
	if err := cfg.Validate(); err != nil {
		return AuditResult{}, err
	}
	policy, err := core.NewThreshold(cfg.Instance, cfg.SellingDiscount, fraction)
	if err != nil {
		return AuditResult{}, err
	}
	bound, err := analysis.BoundForInstance(cfg.Instance, fraction, cfg.SellingDiscount)
	if err != nil {
		return AuditResult{}, err
	}
	period := cfg.Instance.PeriodHours
	traces, err := workload.NewCohort(workload.CohortConfig{
		PerGroup: cfg.PerGroup,
		Hours:    2 * period,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return AuditResult{}, err
	}
	res := AuditResult{Fraction: fraction, Bound: bound}
	var sum float64
	nearBound := 0
	engCfg := simulate.Config{
		Instance:        cfg.Instance,
		SellingDiscount: cfg.SellingDiscount,
		RecordSchedules: true,
	}
	for i, tr := range traces {
		if err := ctx.Err(); err != nil {
			return AuditResult{}, err
		}
		planner, err := behaviorPolicy(cfg, Behaviors[i%len(Behaviors)], int64(i))
		if err != nil {
			return AuditResult{}, err
		}
		newRes, err := purchasing.PlanReservations(tr.Demand, period, planner)
		if err != nil {
			return AuditResult{}, err
		}
		run, err := simulate.Run(tr.Demand, newRes, engCfg, core.KeepReserved{})
		if err != nil {
			return AuditResult{}, err
		}
		for _, inst := range run.Instances {
			if inst.Start+period > tr.Len() {
				continue
			}
			measured, _, err := analysis.VerifyBound(inst.Schedule, policy, cfg.SellingDiscount)
			if err != nil {
				return AuditResult{}, fmt.Errorf("experiments: user %s instance at %d: %w",
					tr.User, inst.Start, err)
			}
			res.Audited++
			sum += measured
			if measured > res.MaxMeasured {
				res.MaxMeasured = measured
			}
			if measured >= bound.Ratio*0.95 {
				nearBound++
			}
		}
	}
	if res.Audited == 0 {
		return AuditResult{}, fmt.Errorf("experiments: no full-period instances to audit")
	}
	res.MeanMeasured = sum / float64(res.Audited)
	res.AtBoundFraction = float64(nearBound) / float64(res.Audited)
	return res, nil
}

// auditParallelisms is the worker-count axis of the audit suite.
func auditParallelisms() []int {
	return []int{1, 4, runtime.NumCPU()}
}

// TestRatioAuditParallelDeterminism pins the fan-out to the serial
// reference: the whole AuditResult, float sum included, is identical
// at every worker count and for every paper fraction.
func TestRatioAuditParallelDeterminism(t *testing.T) {
	for _, k := range []float64{core.Fraction3T4, core.FractionT2, core.FractionT4} {
		cfg := smallConfig()
		want, err := ratioAuditSerial(context.Background(), cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range auditParallelisms() {
			cfg.Parallelism = par
			got, err := RatioAudit(context.Background(), cfg, k)
			if err != nil {
				t.Fatalf("k=%v par=%d: %v", k, par, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%v par=%d: audit %+v differs from serial reference %+v", k, par, got, want)
			}
		}
	}
}

// hookAuditEngine routes the audit's replays through fn, restoring the
// real engine when the test ends. user maps a replay's demand series
// back to its cohort index.
func hookAuditEngine(t *testing.T, cfg Config, fn func(user int) error) {
	t.Helper()
	traces, err := workload.NewCohort(workload.CohortConfig{
		PerGroup: cfg.PerGroup, Hours: 2 * cfg.Instance.PeriodHours, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := simulateTotals
	simulateTotals = func(s *simulate.Scratch, demand, newRes []int, ec simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
		user := slices.IndexFunc(traces, func(tr workload.Trace) bool { return slices.Equal(tr.Demand, demand) })
		if err := fn(user); err != nil {
			return simulate.Totals{}, err
		}
		return orig(s, demand, newRes, ec, pol)
	}
	t.Cleanup(func() { simulateTotals = orig })
}

// TestRatioAuditLowestIndexError injects engine failures for two users
// and requires the lower-index one's error at every worker count — the
// error a serial walk over the users meets first. The serial reference
// replays through simulate.Run, outside the hook, so the expected error
// is spelled out here.
func TestRatioAuditLowestIndexError(t *testing.T) {
	cfg := smallConfig()
	hookAuditEngine(t, cfg, func(user int) error {
		if user == 3 || user == 7 {
			return fmt.Errorf("injected engine failure for user %d", user)
		}
		return nil
	})
	const want = "injected engine failure for user 3"
	for _, par := range auditParallelisms() {
		cfg.Parallelism = par
		_, err := RatioAudit(context.Background(), cfg, core.FractionT2)
		if err == nil || err.Error() != want {
			t.Fatalf("par=%d: error %v, want %v", par, err, want)
		}
	}
}

// TestRatioAuditCancellation: a cancelled audit returns the context's
// error itself, whether cancelled before the fan-out or mid-way.
func TestRatioAuditCancellation(t *testing.T) {
	cfg := smallConfig()
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RatioAudit(pre, cfg, core.FractionT2); err != context.Canceled {
		t.Fatalf("pre-cancelled audit: err = %v, want context.Canceled", err)
	}
	users := 3 * cfg.PerGroup
	for _, par := range auditParallelisms() {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			hookAuditEngine(t, cfg, func(int) error {
				if calls.Add(1) == 2 {
					cancel()
				}
				return nil
			})
			cfg := cfg
			cfg.Parallelism = par
			_, err := RatioAudit(ctx, cfg, core.FractionT2)
			if err == nil && par >= users-1 {
				t.Skip("every user was in flight before the cancel; nothing was abandoned")
			}
			if err != context.Canceled {
				t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestRatioAuditObs: with metrics attached the audit books one engine
// run per user (it used to book none), and the result is unchanged.
func TestRatioAuditObs(t *testing.T) {
	cfg := smallConfig()
	want, err := RatioAudit(context.Background(), cfg, core.FractionT4)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New(obs.SystemClock)
	got, err := RatioAudit(obs.WithMetrics(context.Background(), m), cfg, core.FractionT4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics changed the audit: %+v vs %+v", got, want)
	}
	snap := m.Snapshot()
	if users := int64(3 * cfg.PerGroup); snap.EngineRuns != users || snap.EngineRunNs.Count != users {
		t.Errorf("engine_runs = %d, run-latency count = %d, want %d (one replay per user)",
			snap.EngineRuns, snap.EngineRunNs.Count, users)
	}
}
