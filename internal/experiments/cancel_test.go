package experiments

// Cancellation and panic-containment tests for the worker pool and the
// grid on top of it. Run under -race in CI, these pin the failure
// model: a cancelled run drains in-flight jobs and reports
// context.Canceled with only fully-completed cells; a panicking job
// becomes a structured *JobPanicError instead of killing the process;
// and neither path leaks goroutines.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rimarket/internal/core"
	"rimarket/internal/simulate"
)

// settleGoroutines waits for the goroutine count to drop back to the
// baseline, tolerating runtime bookkeeping goroutines. No new deps:
// plain snapshot with retry-settle.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunIndexedPanicCaptured(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, err := runPool(context.Background(), workers, 16, func(_, i int) error {
				if i == 5 {
					panic("boom")
				}
				return nil
			})
			var pe *JobPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *JobPanicError", err)
			}
			if pe.Index != 5 || pe.Value != "boom" {
				t.Errorf("panic error = {Index: %d, Value: %v}, want {5, boom}", pe.Index, pe.Value)
			}
			if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
				t.Errorf("panic stack not captured: %q", pe.Stack)
			}
			if !strings.Contains(pe.Error(), "job 5 panicked") {
				t.Errorf("Error() = %q", pe.Error())
			}
		})
	}
}

// TestRunIndexedPanicLowestIndexWins pins that panics participate in
// the lowest-index-error rule exactly like returned errors, at any
// worker count.
func TestRunIndexedPanicLowestIndexWins(t *testing.T) {
	cases := []struct {
		name      string
		panicAt   int
		errAt     int
		wantPanic bool
	}{
		{name: "error below panic", panicAt: 9, errAt: 4, wantPanic: false},
		{name: "panic below error", panicAt: 2, errAt: 11, wantPanic: true},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3, 16} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				_, err := runPool(context.Background(), workers, 16, func(_, i int) error {
					switch i {
					case tc.panicAt:
						panic("pool panic")
					case tc.errAt:
						return errors.New("pool error")
					}
					return nil
				})
				var pe *JobPanicError
				if got := errors.As(err, &pe); got != tc.wantPanic {
					t.Fatalf("errors.As(JobPanicError) = %v (err %v), want %v", got, err, tc.wantPanic)
				}
				if tc.wantPanic && pe.Index != tc.panicAt {
					t.Errorf("panic index = %d, want %d", pe.Index, tc.panicAt)
				}
			})
		}
	}
}

// TestRunIndexedPanicKeepsResultsDeterministic asserts that with a
// panicking job in the pool, every other job's output is still written
// exactly once, at any worker count.
func TestRunIndexedPanicKeepsResultsDeterministic(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 4, n} {
		out := make([]int, n)
		_, err := runPool(context.Background(), workers, n, func(_, i int) error {
			if i == n-1 {
				panic(i)
			}
			out[i] = i * i
			return nil
		})
		var pe *JobPanicError
		if !errors.As(err, &pe) || pe.Index != n-1 {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i := 0; i < n-1; i++ {
			if out[i] != i*i {
				t.Fatalf("workers=%d: job %d output %d, want %d", workers, i, out[i], i*i)
			}
		}
	}
}

func TestRunIndexedPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := runPool(ctx, 4, 100, func(_, i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d jobs ran under a pre-cancelled context", ran.Load())
	}
}

// TestRunIndexedCancelDrainsInFlight cancels while jobs are mid-run
// and asserts the pool waits for them (drain, never interrupt) and
// that no jobs start after the cancellation is observed.
func TestRunIndexedCancelDrainsInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 1000
	var started, finished atomic.Int64
	var once sync.Once
	_, err := runPool(ctx, 4, n, func(_, i int) error {
		started.Add(1)
		once.Do(cancel) // cancel from inside the first claimed job
		time.Sleep(time.Millisecond)
		finished.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s, f := started.Load(), finished.Load(); s != f {
		t.Errorf("started %d != finished %d: in-flight jobs were not drained", s, f)
	}
	if s := started.Load(); s >= n {
		t.Errorf("all %d jobs ran despite cancellation", s)
	}
}

// TestRunIndexedCancelRacingCompletion: if every job in fact completed
// before the cancellation was observed, the run is whole and must
// report success, not a spurious context error.
func TestRunIndexedCancelRacingCompletion(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	n := 8
	_, err := runPool(ctx, 2, n, func(_, i int) error {
		if ran.Add(1) == int64(n) {
			cancel() // fires after the last job's work is done
		}
		return nil
	})
	if err != nil {
		t.Fatalf("fully-completed run reported %v", err)
	}
}

func TestRunIndexedNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, _ = runPool(ctx, 8, 64, func(_, i int) error {
			switch {
			case i == 10:
				panic("leak-check panic")
			case i == 20:
				cancel()
			}
			return nil
		})
		cancel()
	}
	settleGoroutines(t, baseline)
}

// TestRunGridCancellation is the -race property test from the issue: a
// cancelled grid returns context.Canceled and only fully-completed
// cells, whose values are byte-identical to an uncancelled run's.
func TestRunGridCancellation(t *testing.T) {
	cfg := smallConfig()
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mkCells := func() []Cell {
		names := []float64{0.25, 0.5, 0.75}
		cells := make([]Cell, 0, len(names))
		for _, k := range names {
			policy, err := core.NewThreshold(cfg.Instance, cfg.SellingDiscount, k)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, Cell{Name: fmt.Sprintf("k=%v", k), Policy: policy, Engine: plan.engineConfig()})
		}
		return cells
	}
	ref, err := plan.RunGrid(context.Background(), mkCells())
	if err != nil {
		t.Fatal(err)
	}
	refByName := make(map[string]CellResult, len(ref))
	for _, cell := range ref {
		refByName[cell.Name] = cell
	}

	for _, par := range parallelisms() {
		for _, cancelAfter := range []int64{0, 1, int64(plan.Len()) / 2, int64(plan.Len())} {
			t.Run(fmt.Sprintf("par=%d/cancelAfter=%d", par, cancelAfter), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var calls atomic.Int64
				orig := simulateResume
				simulateResume = func(s *simulate.Scratch, u int, pt *simulate.ResumePoint, ec simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
					if calls.Add(1) > cancelAfter {
						cancel()
					}
					return orig(s, u, pt, ec, pol)
				}
				defer func() { simulateResume = orig }()

				plan.cfg.Parallelism = par
				got, err := plan.RunGrid(ctx, mkCells())
				if err == nil {
					t.Skip("cancellation raced completion; nothing to assert")
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled in chain", err)
				}
				var ce *CancelError
				if !errors.As(err, &ce) {
					t.Fatalf("err = %v, want *CancelError", err)
				}
				if ce.Total != 3 {
					t.Errorf("CancelError.Total = %d, want 3", ce.Total)
				}
				if len(got) != len(ce.Completed) {
					t.Fatalf("%d results for %d completed names", len(got), len(ce.Completed))
				}
				if len(got) == 3 {
					t.Error("cancelled grid reports every cell complete yet returned an error")
				}
				for i, cell := range got {
					if cell.Name != ce.Completed[i] {
						t.Errorf("result %d named %q, CancelError says %q", i, cell.Name, ce.Completed[i])
					}
					want := refByName[cell.Name]
					for u := range want.Cost {
						if cell.Cost[u] != want.Cost[u] || cell.Norm[u] != want.Norm[u] || cell.Sold[u] != want.Sold[u] {
							t.Fatalf("completed cell %q differs from uncancelled run at user %d", cell.Name, u)
						}
					}
				}
			})
		}
	}
}

// TestCohortCancellation pins the end-to-end path riexp exercises on
// SIGINT: RunCohort under a cancelled context surfaces
// context.Canceled, not a partial result.
func TestCohortCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCohort(ctx, smallConfig())
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCohort under cancelled ctx = (%v, %v)", res, err)
	}
}

// TestKeepStatsNotCachedOnCancel: a cancelled baseline computation must
// not poison the per-card cache with half-filled stats.
func TestKeepStatsNotCachedOnCancel(t *testing.T) {
	plan, err := NewCohortPlan(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.KeepStats(cancelled, plan.engineConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ks, err := plan.KeepStats(context.Background(), plan.engineConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		if k.Total == 0 && plan.users[i].Reserved > 0 {
			t.Fatalf("user %d baseline is zero after a cancelled first attempt (stale cache?)", i)
		}
	}
}

// TestGridPanicContained: a panic inside an engine run — a trunk or a
// resumed cell run — surfaces as a *JobPanicError from RunGrid: the
// process survives one poisoned (cell, user) pair.
func TestGridPanicContained(t *testing.T) {
	plan, err := NewCohortPlan(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.NewA3T4(plan.cfg.Instance, plan.cfg.SellingDiscount)
	if err != nil {
		t.Fatal(err)
	}
	origTrunk, origResume := simulateTrunk, simulateResume
	defer func() { simulateTrunk, simulateResume = origTrunk, origResume }()
	for _, seam := range []string{"trunk", "resume"} {
		t.Run(seam, func(t *testing.T) {
			var calls atomic.Int64
			simulateTrunk, simulateResume = origTrunk, origResume
			if seam == "trunk" {
				simulateTrunk = func(s *simulate.Scratch, demand, newRes []int, ec simulate.Config, hours []int, pts []simulate.ResumePoint) (simulate.Totals, error) {
					if calls.Add(1) == 3 {
						panic("engine bug")
					}
					return origTrunk(s, demand, newRes, ec, hours, pts)
				}
			} else {
				simulateResume = func(s *simulate.Scratch, u int, pt *simulate.ResumePoint, ec simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
					if calls.Add(1) == 3 {
						panic("engine bug")
					}
					return origResume(s, u, pt, ec, pol)
				}
			}
			_, err := plan.RunGrid(context.Background(), []Cell{{Name: "probe", Policy: policy, Engine: plan.engineConfig()}})
			var pe *JobPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *JobPanicError", err)
			}
			if pe.Value != "engine bug" {
				t.Errorf("panic value = %v", pe.Value)
			}
		})
	}
}
