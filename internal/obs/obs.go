// Package obs is the reproduction's zero-dependency observability
// layer: allocation-free atomic counters and fixed-bucket latency
// histograms for the experiment pipeline's hot paths, a context-first
// Span API for coarse phase timing, a grid tracker for cells×users
// fan-outs, a progress renderer, and a run-manifest writer that
// records what produced a result file (flags, seeds, build info,
// per-cell stats) as deterministic JSON.
//
// The package's one invariant, pinned by the differential suite in
// internal/experiments: enabling observability must not perturb
// experiment results. Everything here only *reads* the pipeline —
// metrics are monotone counters fed by atomic adds, timing flows
// through the sanctioned Clock seam (clock.go), and nothing in this
// package feeds back into cohort synthesis, reservation planning or
// the cost engine. Disabled is the default: a nil *Metrics makes
// every hook a nil-check and return, so the unobserved pipeline pays
// nothing.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Metrics is the root of one run's counters, histograms, spans and
// grid stats. The fixed counter fields are safe for concurrent use by
// the worker pool (atomic, allocation-free); spans and cell stats go
// through a mutex because they are recorded at phase granularity, far
// off the hot path. A nil *Metrics is valid everywhere and means
// observability is off.
type Metrics struct {
	clock Clock

	// Engine is filled by simulate.Run's end-of-run hook when the
	// engine Config carries a pointer to it.
	Engine EngineMetrics

	// JobsTotal and JobsDone count worker-pool jobs: every job admitted
	// to a fan-out and every job that ran to completion without error.
	JobsTotal Counter
	JobsDone  Counter

	// BaselineHits and BaselineMisses count Keep-Reserved baseline
	// cache lookups in the cohort plan.
	BaselineHits   Counter
	BaselineMisses Counter

	// CellsTotal and CellsDone count grid cells admitted and fully
	// completed across every RunGrid call of the run.
	CellsTotal Counter
	CellsDone  Counter

	// CellsResumed counts grid cells restored from a spill store
	// (-resume) instead of recomputed; a resumed cell is counted in
	// CellsTotal but never in CellsDone, so the manifest cleanly splits
	// resumed-vs-recomputed work.
	CellsResumed Counter

	// JobsStolen is always 0: the experiment pool claims every job from
	// one shared cursor, so no job is ever taken from another worker.
	// It stays only because perfbench still reports
	// experiments.jobs_stolen from it, and goes when that metric does.
	JobsStolen Counter

	// EngineRunNs is the wall-time distribution of individual engine
	// runs, timed at the experiment-driver call sites (the engine
	// itself never reads a clock).
	EngineRunNs Histogram

	// Serving counters, fed by the rid recommendation daemon
	// (internal/ridserver). Batch tools never touch them, so the
	// manifest's serving section stays absent for offline runs.
	//
	// ServeRequests counts requests admitted past the load-shedding
	// gate; ServeShed those rejected by it with 503. ServeTimeouts
	// counts admitted requests that exhausted their per-request
	// deadline, ServePanics handler panics contained to a 500.
	// SnapshotReloads and SnapshotReloadFails count SIGHUP snapshot
	// swaps and reloads that failed validation (the server keeps the
	// old snapshot). ServeRequestNs is the admitted requests' wall-time
	// distribution, timed through the metrics clock.
	ServeRequests       Counter
	ServeShed           Counter
	ServeTimeouts       Counter
	ServePanics         Counter
	SnapshotReloads     Counter
	SnapshotReloadFails Counter
	ServeRequestNs      Histogram

	// Market counters, fed by the market session's hour loop
	// (internal/experiments: RunMarketScenario, and the one-card
	// sessions of (*CohortPlan).MarketSession). Other drivers never
	// touch them, so the manifest's market section stays absent unless
	// a market session ran.
	//
	// MarketListings counts listings placed on the order book,
	// MarketTrades matched fills, and MarketExpiries listings that aged
	// off the book unsold. MarketBuyOrders counts buyer demand units
	// entering the session and MarketFreshBuys the units that fell
	// through to a fresh reservation because the book held no listing
	// worth taking (for exogenous buyers: found the book empty).
	// MarketHoursToSale accumulates listing-to-fill waits in hours over
	// matched trades, so mean time-to-sale derives from it and
	// MarketTrades.
	MarketListings    Counter
	MarketTrades      Counter
	MarketExpiries    Counter
	MarketBuyOrders   Counter
	MarketFreshBuys   Counter
	MarketHoursToSale Counter

	mu    sync.Mutex
	spans map[string]*SpanStat
	cells []CellStat
}

// New returns a Metrics instance reading time from clock. Pass
// SystemClock in binaries and a FakeClock in tests.
func New(clock Clock) *Metrics {
	return &Metrics{clock: clock, spans: make(map[string]*SpanStat)}
}

// Now reads the metrics' clock. It is the only way observability code
// outside this package should obtain the time.
func (m *Metrics) Now() time.Time { return m.clock() }

// EngineHook returns the engine-metrics target to inject into
// simulate.Config, or nil when m is nil — so drivers can write
// cfg.Metrics = m.EngineHook() without guarding.
func (m *Metrics) EngineHook() *EngineMetrics {
	if m == nil {
		return nil
	}
	return &m.Engine
}

// recordSpan folds one completed span into the per-name totals.
func (m *Metrics) recordSpan(name string, d time.Duration) {
	ns := d.Nanoseconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.spans[name]
	if !ok {
		s = &SpanStat{Name: name, MinNs: ns}
		m.spans[name] = s
	}
	s.Count++
	s.TotalNs += ns
	if ns < s.MinNs {
		s.MinNs = ns
	}
	if ns > s.MaxNs {
		s.MaxNs = ns
	}
}

// recordCells appends one grid's per-cell stats, in cell order.
func (m *Metrics) recordCells(cells []CellStat) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cells = append(m.cells, cells...)
}

// SpanStat is the aggregated timing of one span name.
type SpanStat struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MinNs   int64  `json:"min_ns"`
	MaxNs   int64  `json:"max_ns"`
}

// CellStat is one grid cell's observed cost: how many (cell, user)
// jobs completed, the summed wall time of its engine runs, and the
// wall time from grid start to the cell's completion. Per-cell
// allocation attribution is deliberately absent: cells share one
// worker pool, so heap deltas cannot be assigned to a cell; the
// manifest's MemSnapshot and the bench gate's allocs/op cover that
// axis instead.
type CellStat struct {
	Name     string `json:"name"`
	Jobs     int64  `json:"jobs"`
	EngineNs int64  `json:"engine_ns"`
	WallNs   int64  `json:"wall_ns"`
	// Resumed marks a cell restored from a spill store rather than
	// computed: its Jobs and EngineNs are zero because this run never
	// ran them.
	Resumed bool `json:"resumed,omitempty"`
}

// Snapshot is a point-in-time copy of every metric, in the fixed field
// order the manifest serializes. Concurrent snapshots are safe: each
// counter is read atomically, so a snapshot taken mid-run is monotone
// with respect to earlier snapshots, though not a consistent cut
// across counters. A snapshot taken after the pipeline quiesces is
// exact.
type Snapshot struct {
	EngineRuns      int64             `json:"engine_runs"`
	EngineHours     int64             `json:"engine_hours"`
	EngineInstances int64             `json:"engine_instances"`
	EngineSold      int64             `json:"engine_sold"`
	JobsTotal       int64             `json:"jobs_total"`
	JobsDone        int64             `json:"jobs_done"`
	BaselineHits    int64             `json:"baseline_hits"`
	BaselineMisses  int64             `json:"baseline_misses"`
	CellsTotal      int64             `json:"cells_total"`
	CellsDone       int64             `json:"cells_done"`
	CellsResumed    int64             `json:"cells_resumed"`
	JobsStolen      int64             `json:"jobs_stolen"`
	EngineRunNs     HistogramSnapshot `json:"engine_run_ns"`
	Serving         *ServingSnapshot  `json:"serving,omitempty"`
	Market          *MarketSnapshot   `json:"market,omitempty"`
	Spans           []SpanStat        `json:"spans,omitempty"`
	Cells           []CellStat        `json:"cells,omitempty"`
}

// ServingSnapshot is the manifest's serving section: the rid daemon's
// request, shed, timeout, panic and reload counters plus the request
// latency distribution. It is present only when the process actually
// served (any serving counter nonzero), so batch-tool manifests are
// unchanged.
type ServingSnapshot struct {
	Requests    int64             `json:"requests"`
	Shed        int64             `json:"shed"`
	Timeouts    int64             `json:"timeouts"`
	Panics      int64             `json:"panics"`
	Reloads     int64             `json:"reloads"`
	ReloadFails int64             `json:"reload_fails"`
	RequestNs   HistogramSnapshot `json:"request_ns"`
}

// MarketSnapshot is the manifest's market section: the two-sided
// marketplace session's listing, fill, expiry and buyer-demand
// counters. It is present only when a market session actually ran
// (any market counter nonzero), so cohort-tool manifests are
// unchanged.
type MarketSnapshot struct {
	Listings    int64 `json:"listings"`
	Trades      int64 `json:"trades"`
	Expiries    int64 `json:"expiries"`
	BuyOrders   int64 `json:"buy_orders"`
	FreshBuys   int64 `json:"fresh_buys"`
	HoursToSale int64 `json:"hours_to_sale_total"`
}

// Snapshot captures the current metric values. Spans are sorted by
// name and cells appear in recording order, so serializing a snapshot
// of a deterministic run yields deterministic JSON. Returns nil for a
// nil receiver.
func (m *Metrics) Snapshot() *Snapshot {
	if m == nil {
		return nil
	}
	s := &Snapshot{
		EngineRuns:      m.Engine.Runs.Value(),
		EngineHours:     m.Engine.Hours.Value(),
		EngineInstances: m.Engine.Instances.Value(),
		EngineSold:      m.Engine.Sold.Value(),
		JobsTotal:       m.JobsTotal.Value(),
		JobsDone:        m.JobsDone.Value(),
		BaselineHits:    m.BaselineHits.Value(),
		BaselineMisses:  m.BaselineMisses.Value(),
		CellsTotal:      m.CellsTotal.Value(),
		CellsDone:       m.CellsDone.Value(),
		CellsResumed:    m.CellsResumed.Value(),
		JobsStolen:      m.JobsStolen.Value(),
		EngineRunNs:     m.EngineRunNs.Snapshot(),
	}
	serving := ServingSnapshot{
		Requests:    m.ServeRequests.Value(),
		Shed:        m.ServeShed.Value(),
		Timeouts:    m.ServeTimeouts.Value(),
		Panics:      m.ServePanics.Value(),
		Reloads:     m.SnapshotReloads.Value(),
		ReloadFails: m.SnapshotReloadFails.Value(),
		RequestNs:   m.ServeRequestNs.Snapshot(),
	}
	if serving.Requests+serving.Shed+serving.Timeouts+serving.Panics+serving.Reloads+serving.ReloadFails > 0 {
		s.Serving = &serving
	}
	market := MarketSnapshot{
		Listings:    m.MarketListings.Value(),
		Trades:      m.MarketTrades.Value(),
		Expiries:    m.MarketExpiries.Value(),
		BuyOrders:   m.MarketBuyOrders.Value(),
		FreshBuys:   m.MarketFreshBuys.Value(),
		HoursToSale: m.MarketHoursToSale.Value(),
	}
	if market.Listings+market.Trades+market.Expiries+market.BuyOrders+market.FreshBuys+market.HoursToSale > 0 {
		s.Market = &market
	}
	m.mu.Lock()
	for _, sp := range m.spans {
		s.Spans = append(s.Spans, *sp)
	}
	s.Cells = append(s.Cells, m.cells...)
	m.mu.Unlock()
	sort.Slice(s.Spans, func(i, j int) bool { return s.Spans[i].Name < s.Spans[j].Name })
	return s
}

// EngineMetrics is the cost engine's end-of-run hook target: four
// atomic adds per completed run, no clock reads, no allocations. A
// nil receiver (the default engine Config) records nothing.
type EngineMetrics struct {
	// Runs counts completed simulate.Run calls.
	Runs Counter
	// Hours, Instances and Sold accumulate each run's simulated hours,
	// reserved instances, and instances sold.
	Hours     Counter
	Instances Counter
	Sold      Counter
}

// RecordRun books one completed engine run.
func (e *EngineMetrics) RecordRun(hours, instances, sold int) {
	if e == nil {
		return
	}
	e.Runs.Add(1)
	e.Hours.Add(int64(hours))
	e.Instances.Add(int64(instances))
	e.Sold.Add(int64(sold))
}
