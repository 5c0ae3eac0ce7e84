package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"rimarket/internal/experiments"
	"rimarket/internal/gtrace"
	"rimarket/internal/obs"
	"rimarket/internal/pricing"
	"rimarket/internal/ridserver"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// scenario is what a traced pass decomposes: a workload's cohort, the
// cards it is planned against, the policies every user is replayed
// under, and the trace directory the cohort is read from when the
// workload serves from one.
type scenario struct {
	base     experiments.Config
	cards    []pricing.InstanceType
	policies func(pricing.InstanceType, float64) ([]namedPolicy, error)
	traceDir string
}

// span is one timed call into a layer, kept in memory and written to
// the report when the pass ends.
type span struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// tracer times the benchmark's own calls into each layer. Spans are
// sequential, so a span's self time is its duration.
type tracer struct {
	start time.Time
	spans []span
}

func (tr *tracer) span(name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	tr.spans = append(tr.spans, span{Name: name, Ms: ms(d)})
	return d, err
}

// traceLayers is the traced pass every workload runs on its own inputs.
// It calls each layer's public entry points directly, one layer at a
// time, on one goroutine except where the layer is the worker pool, and
// reports the per-layer metrics. Layers a workload does not cross on
// its end-to-end path are still measured, on that workload's cohort, so
// every workload reports every layer.
func traceLayers(ctx context.Context, o options, sc scenario, t *tally, m metrics, report map[string]any) error {
	tr := &tracer{start: time.Now()}
	base := sc.base
	base.Parallelism = 1

	// workload: cohort synthesis.
	var cohort []workload.Trace
	synthD, err := tr.span("workload.synth", func() (err error) {
		cohort, err = workload.NewCohort(workload.CohortConfig{PerGroup: base.PerGroup, Hours: base.Hours, Seed: base.Seed})
		return err
	})
	if err != nil {
		return err
	}
	m.set("workload.synth_ms", ms(synthD), "ms")

	// gtrace: decode the workload's EC2-log directory, written now when
	// the workload has none. The decoded cohort must equal the
	// synthesized one.
	dir := sc.traceDir
	if dir == "" {
		if dir, err = writeCohortDir(base); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	var loaded []workload.Trace
	decode, err := tr.span("gtrace.decode", func() (err error) {
		loaded, _, err = gtrace.LoadEC2LogFS(os.DirFS(dir), gtrace.LoadOptions{Policy: gtrace.Strict})
		return err
	})
	if err != nil {
		return err
	}
	t.check(sameTraces(cohort, loaded))
	m.set("gtrace.decode_mb_per_s", float64(size)/1e6/decode.Seconds(), "MB/s")

	// experiments: cohort plan per card.
	var fromTraces []workload.Trace
	if sc.traceDir != "" {
		fromTraces = loaded
	}
	var plans []*experiments.CohortPlan
	planD, err := tr.span("experiments.plan", func() (err error) {
		plans, err = planCards(ctx, base, sc.cards, fromTraces)
		return err
	})
	if err != nil {
		return err
	}
	m.set("experiments.plan_ms", ms(planD), "ms")

	// simulate: every (planned user, policy) the workload replays, one
	// engine run at a time. The online policies' sales become the
	// market replay's listings, assigned round-robin as the session does.
	streams := make([][]sellEvent, len(sc.cards))
	var runs, userHours int64
	var simErr error
	var simWall time.Duration
	mallocs, bytesAlloc := allocs(func() {
		simWall, simErr = tr.span("simulate", func() error {
			for ci, card := range sc.cards {
				pols, err := sc.policies(card, base.SellingDiscount)
				if err != nil {
					return err
				}
				eng := simulate.Config{Instance: card, SellingDiscount: base.SellingDiscount}
				perUser := make([][]sellEvent, plans[ci].Len())
				for i, u := range plans[ci].Users() {
					for _, p := range pols {
						run, err := simulate.Run(u.Trace.Demand, u.NewRes, eng, p.policy)
						if err != nil {
							return fmt.Errorf("user %s, %s: %w", u.Trace.User, p.name, err)
						}
						runs++
						userHours += int64(len(u.Trace.Demand))
						if p.online == i%3 {
							perUser[i] = eventsOf(run, u.Trace.User, card.PeriodHours)
						}
					}
				}
				streams[ci] = mergeStream(perUser)
			}
			return nil
		})
	})
	if simErr != nil {
		return simErr
	}
	m.set("simulate.ns_per_user_hour", float64(simWall)/float64(userHours), "ns")
	m.set("simulate.bytes_per_run", float64(bytesAlloc)/float64(runs), "B")
	m.set("simulate.allocs_per_run", float64(mallocs)/float64(runs), "count")

	// experiments: the sharded grid, on a plan built for the worker pool,
	// with the program's obs counters attached to ctx.
	gcfg := sc.base
	gcfg.Instance = sc.cards[0]
	gplans, err := planCards(ctx, gcfg, sc.cards[:1], fromTraces)
	if err != nil {
		return err
	}
	om := obs.New(obs.SystemClock)
	gctx := obs.WithMetrics(ctx, om)
	grid, err := tr.span("experiments.grid", func() error {
		if _, err := gplans[0].Cohort(gctx); err != nil {
			return err
		}
		if _, err := gplans[0].SweepFraction(gctx, sweepKs); err != nil {
			return err
		}
		_, err := gplans[0].SweepDiscount(gctx, sweepAs)
		return err
	})
	if err != nil {
		return err
	}
	snap := om.Snapshot()
	m.set("experiments.grid_ms", ms(grid), "ms")
	m.set("experiments.grid_engine_share", float64(snap.EngineRunNs.SumNs)/(float64(grid)*float64(gcfg.Parallelism)), "ratio")
	m.set("experiments.jobs_stolen", float64(snap.JobsStolen), "count")
	m.set("experiments.baseline_hit_ratio", float64(snap.BaselineHits)/float64(max(snap.BaselineHits+snap.BaselineMisses, 1)), "ratio")

	// analysis: the competitive-ratio audit of A_{3T/4}.
	acfg := base
	acfg.Instance = sc.cards[0]
	var audit experiments.AuditResult
	auditD, err := tr.span("analysis.audit", func() (err error) {
		audit, err = experiments.RatioAudit(ctx, acfg, auditKs[0])
		return err
	})
	if err != nil {
		return err
	}
	t.check(checkAudit(audit))
	m.set("analysis.audit_ms", ms(auditD), "ms")

	// experiments: the market session on the workload's cards. Its loop
	// is what is left of a session's wall after the planning and
	// sell-event engine runs it starts with, redone and timed right before
	// it; the median of three such pairs. Then the benchmark replays the
	// session's order flow through a fresh book: untimed (its counts must
	// equal the session's), timing every book call, and untimed again as
	// the warm base of trace.overhead.
	msc := experiments.MarketScenario{Base: base, Cards: sc.cards}
	msc.Base.Instance = sc.cards[0]
	var session *experiments.MarketResult
	var preps, sessions []float64
	for i := 0; i < 3; i++ {
		prep, err := tr.span("experiments.session_prep", func() error {
			prepPlans, err := planCards(ctx, base, sc.cards, nil)
			if err != nil {
				return err
			}
			_, err = sellStreams(prepPlans, sc.cards, base.SellingDiscount, true)
			return err
		})
		if err != nil {
			return err
		}
		d, err := tr.span("experiments.session", func() (err error) {
			session, err = experiments.RunMarketScenario(ctx, msc)
			return err
		})
		if err != nil {
			return err
		}
		t.check(checkOutcomes(session))
		preps, sessions = append(preps, ms(prep)), append(sessions, ms(d))
	}
	m.set("experiments.session_loop_ms", median(sessions)-median(preps), "ms")
	checked, err := replayBook(msc, plans, streams, false)
	if err != nil {
		return err
	}
	t.check(matchCounts(session, checked))
	var book *bookReplay
	if _, err := tr.span("marketplace", func() (err error) {
		book, err = replayBook(msc, plans, streams, true)
		return err
	}); err != nil {
		return err
	}
	untimedBook, err := replayBook(msc, plans, streams, false)
	if err != nil {
		return err
	}
	m.set("marketplace.list_ns", book.list.mean(), "ns")
	m.set("marketplace.buy_ns", book.buy.mean(), "ns")
	m.set("marketplace.step_ns", book.step.mean(), "ns")
	m.set("marketplace.depth_ns", book.depth.mean(), "ns")
	var demand, used, peak int
	for _, oc := range book.outcomes {
		demand += oc.BuyerDemand
		used += oc.UsedFills
		peak = max(peak, oc.PeakDepth)
	}
	m.set("marketplace.fill_ratio", float64(used)/float64(max(demand, 1)), "ratio")
	m.set("marketplace.peak_depth", float64(peak), "count")

	// experiments: the decision tables rid serves, and Evaluate over the
	// query mix.
	var set *experiments.DecisionSet
	decisions, err := tr.span("experiments.decisions", func() (err error) {
		set, err = plans[0].Decisions(ctx)
		return err
	})
	if err != nil {
		return err
	}
	m.set("experiments.decisions_ms", ms(decisions), "ms")
	n := mixSize
	if !o.full {
		n = 1000
	}
	mix, err := buildMix(set, base.Seed, n)
	if err != nil {
		return err
	}
	var evalErrs int
	evaluate, _ := tr.span("experiments.evaluate", func() error {
		for i := range mix {
			_, err := set.Evaluate(mix[i].q)
			if (err == nil) != (mix[i].status == http.StatusOK) {
				evalErrs++
			}
		}
		return nil
	})
	if evalErrs > 0 {
		t.check(fmt.Errorf("%d Evaluate answers disagree with the mix", evalErrs))
	}
	m.set("experiments.evaluate_ns", float64(evaluate)/float64(len(mix)), "ns")

	// ridserver: the handler in-process, untimed to warm up, timing every
	// call, and untimed again as the base of trace.overhead; then over
	// loopback, where client latency minus handler latency is the
	// transport's share.
	om = obs.New(obs.SystemClock)
	srv, err := ridserver.New(ctx, ridserver.Config{
		Load:    func(context.Context) (*experiments.DecisionSet, error) { return set, nil },
		Metrics: om,
	})
	if err != nil {
		return err
	}
	serveInProcess(srv.Handler(), mix, false, t)
	var handlerNs []time.Duration
	var handlerWall time.Duration
	hm, hb := allocs(func() {
		tr.span("ridserver.handler", func() error {
			handlerWall, handlerNs = serveInProcess(srv.Handler(), mix, true, t)
			return nil
		})
	})
	untimedHandler, _ := serveInProcess(srv.Handler(), mix, false, t)
	handlerP50 := durQuantile(handlerNs, 0.5) * 1e3
	m.set("ridserver.handler_p50_ns", handlerP50, "ns")
	m.set("ridserver.handler_p99_ns", durQuantile(handlerNs, 0.99)*1e3, "ns")
	m.set("ridserver.allocs_per_req", float64(hm)/float64(len(mix)), "count")
	m.set("ridserver.bytes_per_req", float64(hb)/float64(len(mix)), "B")

	lom := obs.New(obs.SystemClock)
	live, err := startServer(ctx, ridserver.Config{
		Load:    func(context.Context) (*experiments.DecisionSet, error) { return set, nil },
		Metrics: lom,
	})
	if err != nil {
		return err
	}
	client := newClient()
	var clientLat []time.Duration
	_, err = tr.span("net.loopback", func() error {
		clientLat = closedLoop(client, live.url, mix, len(mix), t)
		return nil
	})
	client.CloseIdleConnections()
	if serr := live.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	m.set("net.transport_us", durQuantile(clientLat, 0.5)-handlerP50/1e3, "us")
	served := lom.ServeRequests.Value() + lom.ServeShed.Value()
	m.set("ridserver.shed_ratio", float64(lom.ServeShed.Value())/float64(max(served, 1)), "ratio")

	// trace: how much of the pass the spans account for, and what timing
	// every call costs on the two per-call-timed loops.
	wall := time.Since(tr.start)
	var covered float64
	for _, s := range tr.spans {
		covered += s.Ms
	}
	m.set("trace.coverage", covered/ms(wall), "ratio")
	m.set("trace.overhead", float64(book.wall+handlerWall)/float64(untimedBook.wall+untimedHandler)-1, "ratio")
	report["spans"] = tr.spans
	report["engine_runs"] = runs
	report["book_calls"] = map[string]int64{"list": book.list.n, "buy": book.buy.n, "step": book.step.n, "depth": book.depth.n}
	report["session"] = session.Outcomes
	report["handler_samples"] = len(handlerNs)
	report["loopback_samples"] = len(clientLat)
	return nil
}

// serveInProcess calls the handler once per query with no network,
// verifying every answer, and returns the loop's wall time and, when
// timed, each call's duration.
func serveInProcess(h http.Handler, mix []query, timed bool, t *tally) (time.Duration, []time.Duration) {
	reqs := make([]*http.Request, len(mix))
	recs := make([]*httptest.ResponseRecorder, len(mix))
	for i := range mix {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/recommend", bytes.NewReader(mix[i].body))
		recs[i] = httptest.NewRecorder()
	}
	var per []time.Duration
	if timed {
		per = make([]time.Duration, len(mix))
	}
	start := time.Now()
	for i := range reqs {
		if timed {
			t0 := time.Now()
			h.ServeHTTP(recs[i], reqs[i])
			per[i] = time.Since(t0)
		} else {
			h.ServeHTTP(recs[i], reqs[i])
		}
	}
	wall := time.Since(start)
	for i, rec := range recs {
		t.check(mix[i].verify(rec.Code, rec.Body.Bytes()))
	}
	return wall, per
}

// sameTraces holds the decoded cohort to the synthesized one: same
// users in the same order, same demand up to trailing idle hours (the
// log format is sparse).
func sameTraces(want, got []workload.Trace) error {
	if len(want) != len(got) {
		return fmt.Errorf("decoded %d traces, wrote %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.User != g.User || len(g.Demand) > len(w.Demand) {
			return fmt.Errorf("trace %d: decoded %s (%d h), wrote %s (%d h)", i, g.User, len(g.Demand), w.User, len(w.Demand))
		}
		for h, d := range w.Demand {
			if h < len(g.Demand) && g.Demand[h] != d || h >= len(g.Demand) && d != 0 {
				return fmt.Errorf("trace %s: hour %d decoded differently", w.User, h)
			}
		}
	}
	return nil
}

// dirBytes sums the sizes of the files directly in dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
