package experiments

import (
	"context"
	"sync"
	"sync/atomic"

	"rimarket/internal/obs"
)

// runPool is the package's fan-out scheduler (DESIGN.md §4.5): it
// evaluates fn(worker, 0..n-1) over workerCount(parallelism, n)
// goroutines that claim job indices from one shared atomic cursor, and
// returns the completion bitmap — done[i] reports whether fn ran job i
// to completion without error — with the fan-out error. fn also
// receives the claiming worker's id, which indexes per-worker scratch
// and routes each spilled cell to that worker's shard file. Every
// fan-out in the package runs on it, with guarantees that make every
// caller byte-identical at any worker count:
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
//     error is returned;
//   - jobs are claimed in index order and a claimed job 0 is never
//     skipped, so job 0 runs before or alongside every other job: they
//     may wait on its output (cohortFeed) without deadlocking at any
//     worker count.
func runPool(ctx context.Context, parallelism, n int, fn func(worker, i int) error) ([]bool, error) {
	return runPoolLead(ctx, parallelism, n, 0, fn)
}

// runPoolLead is runPool whose first lead jobs are set-up work for the
// rest (a cohort's synthesis ahead of its planning): they run and fail
// like any other job but stay out of the JobsTotal/JobsDone counters,
// which count units of the run's own work.
func runPoolLead(ctx context.Context, parallelism, n, lead int, fn func(worker, i int) error) ([]bool, error) {
	done := make([]bool, n)
	if n <= 0 {
		return done, ctx.Err()
	}
	// Job accounting is observation only: the counters feed progress
	// lines and the manifest, never scheduling.
	m := obs.FromContext(ctx)
	if m != nil {
		m.JobsTotal.Add(int64(n - lead))
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		minErr   atomic.Int64 // lowest failing index so far; n if none
		mu       sync.Mutex   // guards firstErr; only failures take it
		firstErr error
	)
	minErr.Store(int64(n))
	for w := 0; w < workerCount(parallelism, n); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil { // stop claiming; in-flight jobs drain elsewhere
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				if i > minErr.Load() {
					continue // canceled: a lower-index job already failed
				}
				// Every index has exactly one claimant, so each job writes
				// its own done[i]; wg.Wait orders the writes before the
				// caller's reads.
				err := runJob(w, int(i), fn)
				if err == nil {
					done[i] = true
					if m != nil && i >= int64(lead) {
						m.JobsDone.Add(1)
					}
					continue
				}
				mu.Lock()
				if i < minErr.Load() {
					minErr.Store(i)
					firstErr = err
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return done, firstErr
	}
	if err := ctx.Err(); err != nil {
		// Cancellation may race the tail of the run: if every job in
		// fact completed, the results are whole and the run succeeded.
		for _, d := range done {
			if !d {
				return done, err
			}
		}
	}
	return done, nil
}
