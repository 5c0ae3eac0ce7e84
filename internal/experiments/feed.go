package experiments

import (
	"context"
	"sync"

	"rimarket/internal/obs"
	"rimarket/internal/workload"
)

// nextTrace indirects the cohort generator's draw so tests can panic or
// cancel synthesis mid-cohort; production code always calls the real
// CohortGenerator.Next.
var nextTrace = (*workload.CohortGenerator).Next

// cohortFeed hands a cohort's traces to the fan-out that consumes
// them. A synthesizing feed draws the cohort as job 0 of that fan-out
// and publishes each trace the moment it is drawn, so the other
// workers plan the first users while the rest are still being
// synthesized; a filled feed holds traces that already exist, and its
// job 0 has nothing to do.
type cohortFeed struct {
	gen    *workload.CohortGenerator // nil once every trace is published
	traces []workload.Trace

	mu        sync.Mutex
	published sync.Cond // signalled as ready grows or err is set
	ready     int       // traces[:ready] are published
	err       error     // why synthesis stopped short, if it did
}

// synthFeed returns a feed that synthesizes the config's cohort at the
// given horizon.
func synthFeed(cfg Config, hours int) (*cohortFeed, error) {
	gen, err := workload.NewCohortGenerator(workload.CohortConfig{
		PerGroup: cfg.PerGroup,
		Hours:    hours,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	f := &cohortFeed{gen: gen, traces: make([]workload.Trace, gen.Len())}
	f.published.L = &f.mu
	return f, nil
}

// filledFeed returns a feed over traces that already exist.
func filledFeed(traces []workload.Trace) *cohortFeed {
	f := &cohortFeed{traces: traces, ready: len(traces)}
	f.published.L = &f.mu
	return f
}

// Len returns the cohort's user count.
func (f *cohortFeed) Len() int { return len(f.traces) }

// run evaluates fn(worker, i, trace i) for every user i over one
// runPool fan-out of Len()+1 jobs: job 0 synthesizes the cohort in
// order, and job i+1 waits until trace i is published, then runs fn.
// Users keep runPool's contract under their own indices (user i's
// panic reports Index i); the synthesis, as job 0, outranks every
// user, so its failure — a *JobPanicError with Index 0 or the
// context's error — is the fan-out's error, and it releases every
// waiting user first. Workers are runPool's, indexed below
// workerCount(parallelism, Len()+1). After a successful run the feed
// is filled, and a later run plans from the same traces without
// synthesizing again; after a failed run the feed is spent.
func (f *cohortFeed) run(ctx context.Context, parallelism int, fn func(worker, i int, tr workload.Trace) error) error {
	_, err := runPoolLead(ctx, parallelism, len(f.traces)+1, 1, func(w, j int) error {
		if j == 0 {
			return f.synthesize(ctx)
		}
		tr, err := f.wait(j - 1)
		if err != nil {
			return err
		}
		return runJob(w, j-1, func(w, i int) error { return fn(w, i, tr) })
	})
	return err
}

// synthesize is job 0: it draws the traces not yet published inside a
// "synth" span, polling ctx once per trace, and on failure or panic
// records the error for every waiter before returning it.
func (f *cohortFeed) synthesize(ctx context.Context) error {
	if f.gen == nil {
		return nil
	}
	sp := obs.StartSpan(ctx, "synth")
	defer sp.End()
	err := runJob(0, 0, func(_, _ int) error {
		for i := range f.traces {
			if err := ctx.Err(); err != nil {
				return err
			}
			tr := nextTrace(f.gen)
			f.mu.Lock()
			f.traces[i] = tr
			f.ready = i + 1
			f.mu.Unlock()
			f.published.Broadcast()
		}
		return nil
	})
	if err != nil {
		f.mu.Lock()
		f.err = err
		f.mu.Unlock()
		f.published.Broadcast()
		return err
	}
	f.gen = nil
	return nil
}

// wait blocks until trace i is published or synthesis has failed.
func (f *cohortFeed) wait(i int) (workload.Trace, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.ready <= i && f.err == nil {
		f.published.Wait()
	}
	if f.ready > i {
		return f.traces[i], nil
	}
	return workload.Trace{}, f.err
}
