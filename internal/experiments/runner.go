package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"

	"rimarket/internal/obs"
	"rimarket/internal/simulate"
	"rimarket/internal/stats"
)

// timeEngine is the drivers' timed engine call: one clock pair around
// call feeding the run-latency histogram, so the engine itself never
// reads a clock (floatdet forbids it there). With observability off
// (nil m) it is exactly call(). Returns the call's wall time in
// nanoseconds for per-cell attribution.
func timeEngine[T any](m *obs.Metrics, call func() (T, error)) (T, int64, error) {
	if m == nil {
		out, err := call()
		return out, 0, err
	}
	start := m.Now()
	out, err := call()
	ns := m.Now().Sub(start).Nanoseconds()
	if err == nil {
		m.EngineRunNs.Observe(ns)
	}
	return out, ns, err
}

// simulateTrunk indirects the Keep-Reserved trunk replays behind the
// grids and the baselines — one replay per user per price card on the
// claiming worker's own Scratch — so tests can count, fail or cancel
// them; production code always calls the real Scratch.Trunk.
var simulateTrunk = (*simulate.Scratch).Trunk

// simulateResume indirects a grid cell's engine call: user u's replay
// resumed from its trunk's point pt. Tests swap it to count, fail or
// cancel cell runs by user; production code always calls the real
// Scratch.Resume.
var simulateResume = func(s *simulate.Scratch, u int, pt *simulate.ResumePoint, cfg simulate.Config, policy simulate.SellingPolicy) (simulate.Totals, error) {
	return s.Resume(pt, cfg, policy)
}

// obsTrunk is simulateTrunk under timeEngine. The engine's own
// RecordRun still fires through cfg.Metrics, so a trunk counts as one
// engine run.
func obsTrunk(m *obs.Metrics, s *simulate.Scratch, demand, newRes []int, cfg simulate.Config, hours []int, pts []simulate.ResumePoint) (simulate.Totals, int64, error) {
	return timeEngine(m, func() (simulate.Totals, error) { return simulateTrunk(s, demand, newRes, cfg, hours, pts) })
}

// obsResume is simulateResume under timeEngine; a resume counts as one
// engine run over the hours it replays.
func obsResume(m *obs.Metrics, s *simulate.Scratch, u int, pt *simulate.ResumePoint, cfg simulate.Config, policy simulate.SellingPolicy) (simulate.Totals, int64, error) {
	return timeEngine(m, func() (simulate.Totals, error) { return simulateResume(s, u, pt, cfg, policy) })
}

// simulateReplay indirects the scratch-reusing engine call that also
// returns per-instance records — the market session's seller replays,
// the decision tables and the ratio audit — so tests can count or fail
// those invocations; production code always calls the real
// Scratch.Replay.
var simulateReplay = (*simulate.Scratch).Replay

// replayOut is one Scratch.Replay's outputs, carried through
// timeEngine as a single value.
type replayOut struct {
	tot  simulate.Totals
	recs []simulate.InstanceRecord
}

// obsReplay is simulateReplay under timeEngine. The records live in
// s's buffer until the worker's next replay on it.
func obsReplay(m *obs.Metrics, s *simulate.Scratch, demand, newRes []int, cfg simulate.Config, policy simulate.SellingPolicy) (simulate.Totals, []simulate.InstanceRecord, error) {
	out, _, err := timeEngine(m, func() (replayOut, error) {
		tot, recs, err := simulateReplay(s, demand, newRes, cfg, policy)
		return replayOut{tot, recs}, err
	})
	return out.tot, out.recs, err
}

// workerCount resolves the Config.Parallelism contract: non-positive
// means GOMAXPROCS, and there is never more than one worker per job.
func workerCount(parallelism, jobs int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > jobs {
		parallelism = jobs
	}
	return parallelism
}

// JobPanicError is a panic captured from a worker-pool job. The pool
// converts panics to errors instead of letting one bad cell or user
// kill the whole process: the panic value and stack are preserved so
// the failure is as debuggable as the crash would have been, while
// every other job drains normally.
type JobPanicError struct {
	// Index is the panicking job's index.
	Index int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack, captured at recover.
	Stack []byte
}

func (e *JobPanicError) Error() string {
	return fmt.Sprintf("experiments: job %d panicked: %v", e.Index, e.Value)
}

// CancelError reports a fan-out cut short by context cancellation:
// in-flight jobs were drained, jobs not yet started were abandoned.
// It unwraps to the context's error so callers can branch with
// errors.Is(err, context.Canceled).
type CancelError struct {
	// Completed names the fully-completed units of work (grid cells for
	// RunGrid; empty for plain user fan-outs).
	Completed []string
	// Total is the number of units the run was asked for.
	Total int
	// Err is the context's error (context.Canceled or DeadlineExceeded).
	Err error
}

func (e *CancelError) Error() string {
	if len(e.Completed) == 0 {
		return fmt.Sprintf("experiments: %v (0 of %d cells completed)", e.Err, e.Total)
	}
	return fmt.Sprintf("experiments: %v (%d of %d cells completed: %s)",
		e.Err, len(e.Completed), e.Total, strings.Join(e.Completed, ", "))
}

func (e *CancelError) Unwrap() error { return e.Err }

// runJob invokes fn(worker, i) with panic containment: a panic becomes
// a *JobPanicError carrying the job index, panic value and stack.
func runJob(worker, i int, fn func(worker, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &JobPanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(worker, i)
}

// runIndexed evaluates fn(0..n-1) over the shared-cursor worker pool
// (runPool, shard.go), for callers that need neither the worker id nor
// the completion bitmap. Every fan-out in the package has the same
// guarantees, which make every caller byte-identical at any worker
// count:
//
//   - each job writes only its own index, so outputs land in
//     deterministic order regardless of scheduling;
//   - the returned error is the one from the lowest-index failing job,
//     not the temporally first. On failure the pool cancels all jobs
//     above the best-known failing index but still drains every job
//     below it (any of those could fail with a lower index), so the
//     same error surfaces whether n workers race or one worker walks
//     the jobs in order;
//   - a panicking job is captured as a *JobPanicError and participates
//     in the lowest-index rule like any other failure — the process
//     never crashes because one job did;
//   - cancelling ctx stops workers from claiming new jobs; jobs already
//     running are drained, never interrupted. Job errors take
//     precedence; otherwise, if any job was abandoned, the context's
//     error is returned.
func runIndexed(ctx context.Context, parallelism, n int, fn func(i int) error) error {
	_, err := runPool(ctx, parallelism, n, func(_, i int) error { return fn(i) })
	return err
}

// Cell is one grid cell of a sweep or sensitivity experiment: a selling
// policy and the engine configuration it runs under.
type Cell struct {
	// Name labels the cell in error messages.
	Name string
	// Policy is the selling policy the cell evaluates.
	Policy simulate.SellingPolicy
	// Engine is the cost-engine configuration for the cell's runs.
	Engine simulate.Config
}

// CellResult holds one cell's per-user outcomes, in cohort order.
type CellResult struct {
	// Name echoes the cell's label, so partial grids returned after a
	// cancellation remain identifiable.
	Name string
	// Cost is each user's total cost (Eq. 1) under the cell's policy.
	Cost []float64
	// Norm is Cost normalized to the user's Keep-Reserved baseline
	// (1 when the baseline is zero).
	Norm []float64
	// Sold is each user's number of instances sold.
	Sold []int
}

// MeanNorm is the cohort-mean normalized cost.
func (c CellResult) MeanNorm() float64 { return stats.Mean(c.Norm) }

// FracSaved is the fraction of users strictly below the baseline.
func (c CellResult) FracSaved() float64 { return stats.FractionBelow(c.Norm, 1) }

// RunGrid evaluates every (cell, user) pair over the plan's worker
// pool and returns one CellResult per cell, in cell order. Until a
// policy's first checkpoint hour its replay is the Keep-Reserved
// replay, so the grid first runs one Keep-Reserved trunk per user per
// price card of the pending cells, capturing a resume point at every
// distinct fork hour (simulate.ForkHour), and then resumes each pair
// from its user's point: a grid costs one trunk per user per card plus
// one resumed run per pair. The trunk's totals are the card's
// Keep-Reserved baseline, which fills the plan's KeepStats cache when
// the card is not cached yet.
//
// When ctx is cancelled mid-grid the in-flight runs are drained and
// RunGrid returns the fully-completed cells (in cell order) together
// with a *CancelError naming them; errors.Is(err, context.Canceled)
// holds and no partially-evaluated cell is ever returned.
func (p *CohortPlan) RunGrid(ctx context.Context, cells []Cell) ([]CellResult, error) {
	return p.RunGridNamed(ctx, "grid", cells)
}

// RunGridNamed is RunGrid with an explicit grid label. The label names
// the grid's spill subdirectory (Config.SpillDir/<label>), so the
// several grids one riexp invocation can run — cohort, sweeps,
// sensitivity — spill side by side without colliding. With
// Config.SpillDir unset the label changes nothing.
//
// With spill enabled, each fully-completed cell is appended to the
// grid's gridstore the moment its last user lands; with Config.Resume
// also set, cells already valid on disk are loaded instead of
// recomputed (the store is validated against the grid's config hash,
// seed, and cell list first — a mismatch is an error, never a merge).
// Resumed cells count toward CancelError.Completed: they are fully
// completed, just not by this process, and a grid resumed whole runs
// no trunk.
func (p *CohortPlan) RunGridNamed(ctx context.Context, name string, cells []Cell) ([]CellResult, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("experiments: no grid cells")
	}
	users := len(p.users)
	out := make([]CellResult, len(cells))
	names := make([]string, len(cells))
	for i := range out {
		names[i] = cells[i].Name
		out[i] = CellResult{
			Name: cells[i].Name,
			Cost: make([]float64, users),
			Norm: make([]float64, users),
			Sold: make([]int, users),
		}
	}
	// Observability: time the grid as a span, track per-cell progress,
	// and hand each cell's engine runs the metrics hook via a config
	// copy (the Metrics field changes no engine result — pinned by the
	// differential suite). All of it is inert when the context carries
	// no metrics.
	m := obs.FromContext(ctx)
	sp := obs.StartSpan(ctx, "grid")
	defer sp.End()
	tracker := m.StartGrid(names, users)
	defer tracker.Finish()
	engs := make([]simulate.Config, len(cells))
	for i := range cells {
		engs[i] = cells[i].Engine
		if m != nil {
			engs[i].Metrics = m.EngineHook()
		}
	}
	// Spill/resume: open (or create) the grid's on-disk store, prefill
	// out with the cells recovered from a previous run, and fan out
	// over only the still-pending cells.
	var spill *gridSpill
	if p.cfg.SpillDir != "" {
		var err error
		spill, err = p.openSpill(name, cells, users, out, tracker)
		if err != nil {
			return nil, err
		}
	}
	pending := make([]int, 0, len(cells))
	for ci := range cells {
		if spill == nil || !spill.resumed[ci] {
			pending = append(pending, ci)
		}
	}
	// failed ends a grid whose trunk or cell fan-out returned err, with
	// done the cell fan-out's completion bitmap (nil before it ran). On
	// a drained cancellation what is spilled so far is complete, so the
	// store is closed before reporting the whole cells: resumed ones,
	// and pending ones whose every user is done.
	failed := func(err error, done []bool) ([]CellResult, error) {
		ctxErr := ctx.Err()
		if ctxErr == nil || err != ctxErr {
			_ = spill.close() // the run already failed; a close error is secondary
			return nil, err
		}
		if cerr := spill.close(); cerr != nil {
			return nil, cerr
		}
		completed := make([]CellResult, 0, len(cells))
		names := make([]string, 0, len(cells))
		whole := make([]bool, len(cells))
		for ci := range cells {
			whole[ci] = spill != nil && spill.resumed[ci]
		}
		for pi, ci := range pending {
			whole[ci] = done != nil
			for ui := 0; whole[ci] && ui < users; ui++ {
				whole[ci] = done[pi*users+ui]
			}
		}
		for ci := range cells {
			if whole[ci] {
				completed = append(completed, out[ci])
				names = append(names, cells[ci].Name)
			}
		}
		return completed, &CancelError{Completed: names, Total: len(cells), Err: ctxErr}
	}
	// Each worker replays on its own Scratch, indexed by the worker id
	// the pool passes, so no scratch is ever shared between goroutines;
	// the trunk and cell fan-outs share the warm scratches.
	jobs := len(pending) * users
	scratch := make([]simulate.Scratch, workerCount(p.cfg.Parallelism, jobs))
	trunks, err := p.runGridTrunks(ctx, cells, engs, pending, scratch)
	if err != nil {
		return failed(err, nil)
	}
	// remaining counts each pending cell's outstanding jobs; the worker
	// whose decrement hits zero owns the cell's spill append. The
	// atomic decrement orders every user's result write before that
	// worker's read, so encoding the record is race-free.
	remaining := make([]atomic.Int64, len(cells))
	for _, ci := range pending {
		remaining[ci].Store(int64(users))
	}
	done, err := runPool(ctx, p.cfg.Parallelism, jobs, func(w, j int) error {
		ci, ui := pending[j/users], j%users
		u := &p.users[ui]
		pt, keep := trunks.point(ci, ui)
		tot, ns, err := obsResume(m, &scratch[w], ui, pt, engs[ci], cells[ci].Policy)
		if err != nil {
			return fmt.Errorf("experiments: cell %s: user %s: %w", cells[ci].Name, u.Trace.User, err)
		}
		tracker.JobDone(ci, ns)
		cell := &out[ci]
		cell.Cost[ui] = tot.Cost.Total()
		cell.Sold[ui] = tot.Sold
		if keep != 0 {
			cell.Norm[ui] = tot.Cost.Total() / keep
		} else {
			cell.Norm[ui] = 1
		}
		if remaining[ci].Add(-1) == 0 && spill != nil {
			return spill.appendCell(w, ci, cell)
		}
		return nil
	})
	if err != nil {
		return failed(err, done)
	}
	if err := spill.close(); err != nil {
		return nil, err
	}
	return out, nil
}
