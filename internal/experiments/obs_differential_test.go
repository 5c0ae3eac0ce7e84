package experiments

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"rimarket/internal/obs"
)

// The observability differential suite: the layer's load-bearing
// invariant is that enabling metrics must not perturb experiment
// results. Each test renders a full experiment to bytes twice — once
// on a bare context, once with a Metrics attached — at several worker
// counts, and demands byte equality everywhere. Run under -race in CI,
// this also exercises the concurrent metric recording from the worker
// pool.

// obsDiffParallelisms are the worker counts the satellite task pins:
// serial, a fixed small pool, and whatever the host has.
func obsDiffParallelisms() []int {
	return []int{1, 4, runtime.NumCPU()}
}

// obsDiffConfig is a cohort small enough to run the full matrix in
// seconds but large enough that every cell has work at parallelism 4.
func obsDiffConfig(parallelism int) Config {
	cfg := TestScaleConfig()
	cfg.PerGroup = 4
	cfg.Parallelism = parallelism
	return cfg
}

// obsCtx returns a bare context and, when observed, one carrying fresh
// metrics on a fake clock (the differential property must hold no
// matter what the clock returns).
func obsCtx(observed bool) (context.Context, *obs.Metrics) {
	if !observed {
		return context.Background(), nil
	}
	m := obs.New(obs.FakeClock(time.Unix(0, 0).UTC(), time.Microsecond))
	return obs.WithMetrics(context.Background(), m), m
}

// renderGrid runs the full cohort experiment and serializes it the way
// riexp -format json does.
func renderGrid(t *testing.T, ctx context.Context, parallelism int) []byte {
	t.Helper()
	plan, err := NewCohortPlan(ctx, obsDiffConfig(parallelism))
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Cohort(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func renderSweep(t *testing.T, ctx context.Context, parallelism int) []byte {
	t.Helper()
	plan, err := NewCohortPlan(ctx, obsDiffConfig(parallelism))
	if err != nil {
		t.Fatal(err)
	}
	points, err := plan.SweepFraction(ctx, []float64{0.25, 0.5, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	return []byte(RenderSweep("sweep", "fraction", points))
}

func renderResell(t *testing.T, ctx context.Context, parallelism int) []byte {
	t.Helper()
	plan, err := NewCohortPlan(ctx, obsDiffConfig(parallelism))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := plan.HourResellComparison(ctx, []float64{0.3, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	return []byte(RenderHourResell(rows))
}

func runObsDifferential(t *testing.T, render func(*testing.T, context.Context, int) []byte) {
	t.Helper()
	var reference []byte
	for _, par := range obsDiffParallelisms() {
		par := par
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			plainCtx, _ := obsCtx(false)
			obsCtxVal, m := obsCtx(true)
			plain := render(t, plainCtx, par)
			observed := render(t, obsCtxVal, par)
			if !bytes.Equal(plain, observed) {
				t.Errorf("output differs with observability on at parallelism %d:\n--- off ---\n%s\n--- on ---\n%s",
					par, plain, observed)
			}
			// Guard against vacuity: the observed run must actually have
			// recorded engine activity.
			s := m.Snapshot()
			if s.EngineRuns == 0 || s.JobsDone == 0 {
				t.Fatalf("observed run recorded nothing (runs=%d jobs=%d); differential test is vacuous",
					s.EngineRuns, s.JobsDone)
			}
			if s.JobsDone != s.JobsTotal {
				t.Errorf("jobs done %d != total %d on a clean run", s.JobsDone, s.JobsTotal)
			}
			// And against cross-parallelism drift, observed or not.
			if reference == nil {
				reference = plain
			} else if !bytes.Equal(reference, plain) {
				t.Errorf("output differs across parallelism levels")
			}
		})
	}
}

func TestObsDifferentialGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-cohort differential; skipped in -short")
	}
	runObsDifferential(t, renderGrid)
}

func TestObsDifferentialSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full-cohort differential; skipped in -short")
	}
	runObsDifferential(t, renderSweep)
}

func TestObsDifferentialResell(t *testing.T) {
	if testing.Short() {
		t.Skip("full-cohort differential; skipped in -short")
	}
	runObsDifferential(t, renderResell)
}

// TestObsGridAccounting checks the driver-side bookkeeping against
// ground truth: a cohort grid of C cells over U users must book
// exactly C cells and C*U grid jobs, one engine-histogram observation
// per engine run, and per-cell job counts of U.
func TestObsGridAccounting(t *testing.T) {
	ctx, m := obsCtx(true)
	plan, err := NewCohortPlan(ctx, obsDiffConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	users := plan.Len()
	if _, err := plan.Cohort(ctx); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.CellsTotal == 0 || s.CellsDone != s.CellsTotal {
		t.Fatalf("cells %d/%d", s.CellsDone, s.CellsTotal)
	}
	gridJobs := s.CellsTotal * int64(users)
	if int64(len(s.Cells)) != s.CellsTotal {
		t.Fatalf("recorded %d cell stats, want %d", len(s.Cells), s.CellsTotal)
	}
	for _, c := range s.Cells {
		if c.Jobs != int64(users) {
			t.Errorf("cell %s booked %d jobs, want %d", c.Name, c.Jobs, users)
		}
	}
	// Engine runs = grid jobs + baseline runs (one per user per price
	// card computed). The cohort uses one price card, computed once.
	wantRuns := gridJobs + int64(users)*s.BaselineMisses
	if s.EngineRuns != wantRuns {
		t.Errorf("engine runs = %d, want %d (grid %d + %d baseline misses x %d users)",
			s.EngineRuns, wantRuns, gridJobs, s.BaselineMisses, users)
	}
	if int64(s.EngineRunNs.Count) != s.EngineRuns {
		t.Errorf("histogram count %d != engine runs %d", s.EngineRunNs.Count, s.EngineRuns)
	}
	if s.BaselineMisses == 0 {
		t.Error("cohort computed no baselines; accounting test is vacuous")
	}
	if s.BaselineHits == 0 {
		t.Error("cohort grid shares a price card across cells; expected baseline cache hits")
	}
	// Spans: synth + plan + baseline + at least one grid.
	spanNames := map[string]bool{}
	for _, sp := range s.Spans {
		spanNames[sp.Name] = true
	}
	for _, want := range []string{"synth", "plan", "baseline", "grid"} {
		if !spanNames[want] {
			t.Errorf("missing span %q in %+v", want, s.Spans)
		}
	}
}
