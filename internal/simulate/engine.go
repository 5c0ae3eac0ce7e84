package simulate

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"rimarket/internal/pricing"
)

// instState is the engine's mutable per-reservation state, stored in
// one contiguous slab per replay (see Scratch) so a whole-cohort
// experiment makes O(users) allocations rather than O(users·instances).
type instState struct {
	rec    InstanceRecord
	sold   bool
	expiry int   // Start + T
	ckAges []int // decision ages, strictly increasing
	nextCk int   // index of the next pending decision age
}

// checkpointAges resolves the policy's decision ages for the period,
// honoring the optional MultiCheckpointPolicy extension. The returned
// slice is sorted, deduplicated and restricted to (0, period).
func checkpointAges(policy SellingPolicy, period int) []int {
	return appendCheckpointAges(nil, policy, period)
}

// appendCheckpointAges is checkpointAges writing into dst[:0], so a
// reused Scratch resolves a single-age policy without allocating.
func appendCheckpointAges(dst []int, policy SellingPolicy, period int) []int {
	ages := dst[:0]
	if mp, ok := policy.(MultiCheckpointPolicy); ok {
		raw := mp.CheckpointAges(period)
		ages = slices.Grow(ages, len(raw))
		for _, a := range raw {
			if a > 0 && a < period {
				ages = append(ages, a)
			}
		}
	} else if a := policy.CheckpointAge(period); a > 0 && a < period {
		ages = append(ages, a)
	}
	sort.Ints(ages)
	out := ages[:0]
	for i, a := range ages {
		if i == 0 || a != ages[i-1] {
			out = append(out, a)
		}
	}
	return out
}

// validateRun is the shared input validation of Run, Scratch.Totals,
// Scratch.Trunk and the test-only reference engine; all must reject
// identical inputs identically.
func validateRun(demand, newRes []int, cfg Config, policy SellingPolicy) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(demand) != len(newRes) {
		return fmt.Errorf("%w: %d demand hours, %d reservation hours",
			ErrLengthMismatch, len(demand), len(newRes))
	}
	for t, d := range demand {
		if d < 0 {
			return fmt.Errorf("simulate: negative demand %d at hour %d", d, t)
		}
		if newRes[t] < 0 {
			return fmt.Errorf("simulate: negative reservation count %d at hour %d", newRes[t], t)
		}
	}
	if policy == nil {
		return fmt.Errorf("simulate: nil selling policy")
	}
	return nil
}

// batch is one hour's reservations: slab indices [lo, hi), reserved at
// hour, batch index j-lo+1 for slab index j.
type batch struct{ hour, lo, hi int }

// event is one checkpoint consultation: slab instance j at hour.
type event struct{ hour, j int }

// byHour orders checkpoint events by hour alone; a stable sort keeps
// each hour's events in generation order.
func byHour(a, b event) int { return cmp.Compare(a.hour, b.hour) }

// Scratch is the replay engine's reusable working memory: the batch
// list, the checkpoint event list, the active list (whose allocation
// also holds the segment counters), the instance slab,
// the per-instance age backing, and the instance records and busy
// schedules Records returns, which Run allocates afresh for every
// replay; it also keeps the last replay's batch list and sale count
// for Positions. Every buffer is sized by the instances replayed,
// not by the horizon. Each replay grows the buffers on demand and
// overwrites or clears every element it reads, so nothing leaks from
// one replay into the next.
//
// The zero value is ready to use. A Scratch is not safe for concurrent
// use: a worker pool gives each goroutine its own.
type Scratch struct {
	batches    []batch
	events     []event
	active     []int
	slab       []instState
	soloAges   []int
	sharedAges []int
	recs       []InstanceRecord
	scheds     []bool
	ran        []batch // the last successful replay's batches
	sold       int     // and the instances it sold
}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Run replays the demand series against the reservation series under
// the given selling policy and returns the cost and the per-instance
// records; HourRows derives the per-hour rows from them.
//
// Per hour t the engine, in order:
//  1. activates the newRes[t] instances reserved at t (active from t);
//  2. consults the selling policy for every unsold instance whose age
//     equals one of its pending checkpoint ages (sold instances stop
//     serving and stop incurring the reserved hourly fee from t on, and
//     earn a * R * remaining/T, less the market fee);
//  3. serves demand[t] with active instances in the paper's working
//     sequence — least remaining period first, higher batch index first
//     within a batch — and buys o_t = max(0, d_t - r_t) on-demand
//     instances for the overflow;
//  4. books C_t per Eq. (1).
//
// Policies implementing MultiCheckpointPolicy are consulted at each of
// their ages until they sell; policies implementing PerInstancePolicy
// assign every instance its own age at reservation time. ShouldSell is
// called in exactly the working-sequence order of the instances due at
// each hour; InstanceCheckpointAge is called once per instance in
// reservation order (start ascending, batch index ascending) before the
// replay begins — the interface requires it to be deterministic in
// (start, batchIndex), so the hoisting is unobservable.
//
// The engine exploits three structural invariants to stay out of the
// per-hour hot path's way. First, because PeriodHours is constant, the
// active list stays in working-sequence order by construction: expiring
// instances are always a prefix (head-trim) and each hour's new batch
// always belongs at the tail (appended in descending batch index), so
// no per-hour sort is needed. Second, every checkpoint hour is known at
// activation time, so consultations are listed up front, sorted by
// hour, instead of scanning the active list every hour. The hour loop
// walks the batch list and the event list with one cursor each, so the
// set-up is proportional to the instances, not the horizon. Third,
// between two event hours (an activation, an expiry, a checkpoint) the
// active window does not change, and the instance at window position p
// serves exactly the hours with d_t > p. So the loop handles events
// only at event hours and serves each segment between them with one
// compare and one counter bump per hour, plus the hour's reserved-fee
// add and, when demand overflows the window, its on-demand add; at the
// segment's end every window instance is credited its working hours by
// position, before any checkpoint can read them. The skipped adds are
// all +0, so the float results are those of one add per term per hour,
// bit for bit. The whole replay makes O(1) heap allocations: instance
// state, batches, checkpoint events and (optionally) schedules live in
// pre-sized slabs. Run is Scratch.Totals then Scratch.Records on a fresh
// Scratch, so the Result it returns owns its records and schedules;
// Scratch.Totals, Scratch.Trunk and Scratch.Resume are the same replay
// on a caller-owned one.
func Run(demand, newRes []int, cfg Config, policy SellingPolicy) (Result, error) {
	var s Scratch
	tot, err := s.Totals(demand, newRes, cfg, policy)
	if err != nil {
		return Result{}, err
	}
	return Result{Cost: tot.Cost, Instances: s.Records()}, nil
}

// Totals is one replay's lean outcome: the exact cost breakdown a
// Result would carry, plus the aggregates the experiment drivers
// consume, without the per-instance records (see Scratch.Records).
type Totals struct {
	// Cost is the run's cost decomposition, bit-identical to the Cost
	// of the corresponding Run.
	Cost CostBreakdown
	// Sold is the number of instances sold.
	Sold int
	// IdleHours sums, over all hours, the active reserved instances
	// that served no demand — the idle-hour statistic the Keep-Reserved
	// baseline exposes via experiments.KeepStat.
	IdleHours int
}

// Totals replays one user exactly as Run does — same decisions, same
// float accumulation order, so Cost is bit-identical to Run's — and
// returns the lean Totals (Cost, Sold, IdleHours); Records then reads
// the per-instance records, with busy schedules when
// Config.RecordSchedules is set. It is the replay loop started at hour
// 0 with no resume point and no captures. On a warm Scratch whose
// buffers already fit the input, a replay under a single-checkpoint,
// per-instance or never-selling policy allocates nothing, schedules or
// not.
func (s *Scratch) Totals(demand, newRes []int, cfg Config, policy SellingPolicy) (Totals, error) {
	if err := validateRun(demand, newRes, cfg, policy); err != nil {
		return Totals{}, err
	}
	return s.replay(demand, newRes, cfg, policy, nil, nil)
}

// Records returns the per-instance records of the last successful
// replay on s — Totals, Trunk or Resume — in reservation order, as
// Run's Instances would hold them for the same replay. A resumed
// replay's records equal an hour-0 replay's: nothing sold before the
// resume hour, and the instances reserved before it continue from the
// working time the trunk captured. A record carries its busy schedule
// only when the replay recorded schedules, which only Totals and Run
// do, under Config.RecordSchedules. The records and their schedules
// live in buffers the Scratch owns, valid until the next replay or
// Records call on s; a caller that keeps them must copy. The slice is
// non-nil even when empty, and on a warm Scratch Records allocates
// nothing.
func (s *Scratch) Records() []InstanceRecord {
	if s.recs == nil || cap(s.recs) < len(s.slab) {
		s.recs = make([]InstanceRecord, len(s.slab))
	}
	recs := s.recs[:len(s.slab)]
	for j := range s.slab {
		recs[j] = s.slab[j].rec
	}
	return recs
}

// ResumePoint is a Keep-Reserved replay's state just before one hour:
// the three cost accumulators, the active list's head and the working
// time of every instance reserved so far, with the replay's batch list,
// so resuming neither rescans nor revalidates the series. Until a policy's first
// checkpoint hour (see ForkHour) its replay is the Keep-Reserved
// replay hour for hour, so Scratch.Resume can continue it from a point
// Scratch.Trunk captured instead of replaying those hours again.
//
// A point is bound to the demand and reservation series and the price
// card its trunk validated; it keeps references to the series, which
// must not change while the point is in use. The zero value is an
// empty point that Trunk can capture into.
type ResumePoint struct {
	hour                        int
	demand, newRes              []int
	card                        pricing.InstanceType
	onDemand, upfront, reserved float64
	head                        int
	batches                     []batch // every batch of the trunk's inputs
	activated                   int     // how many were reserved before hour
	worked                      []int   // Worked of the instances they hold
}

// NewResumePoints returns len(caps) empty resume points carved from
// shared slabs, point i with room for caps[i] instances — a user's
// reservation count bounds every point of its trunk — so a grid's
// points cost O(1) allocations and a Trunk capturing into them none.
func NewResumePoints(caps []int) []ResumePoint {
	n := 0
	for _, c := range caps {
		n += c
	}
	worked := make([]int, n)
	batches := make([]batch, n)
	pts := make([]ResumePoint, len(caps))
	off := 0
	for i, c := range caps {
		pts[i].worked = worked[off : off : off+c]
		pts[i].batches = batches[off : off : off+c]
		off += c
	}
	return pts
}

// Trunk replays the Keep-Reserved policy over the inputs, exactly as
// Totals does, and captures pts[i] just before hour hours[i]; an hour
// equal to len(demand) captures the finished replay. hours must be
// non-decreasing and within [0, len(demand)]. The returned Totals are
// the Keep-Reserved baseline itself. A point reuses its buffers, so a
// warm trunk capturing into reused points allocates nothing.
func (s *Scratch) Trunk(demand, newRes []int, cfg Config, hours []int, pts []ResumePoint) (Totals, error) {
	if err := validateRun(demand, newRes, cfg, KeepReserved{}); err != nil {
		return Totals{}, err
	}
	if len(hours) != len(pts) {
		return Totals{}, fmt.Errorf("simulate: %d capture hours for %d resume points", len(hours), len(pts))
	}
	for i, h := range hours {
		if h < 0 || h > len(demand) || (i > 0 && h < hours[i-1]) {
			return Totals{}, fmt.Errorf("simulate: capture hours %v not non-decreasing within [0, %d]", hours, len(demand))
		}
	}
	for i, h := range hours {
		pts[i].hour = h
	}
	cfg.RecordSchedules = false
	return s.replay(demand, newRes, cfg, KeepReserved{}, nil, pts)
}

// Resume continues the trunk replay pt was captured from under policy
// and returns the Totals that Totals would return for the trunk's
// inputs under policy, bit for bit. It is valid while the policy
// consults no instance before pt's hour, which holds for every hour up
// to ForkHour; a policy due earlier is an error. cfg must carry the
// trunk's price card; the selling discount and market fee are free,
// since the trunk never sold. Config.RecordSchedules is ignored. On a
// warm Scratch a resume allocates nothing.
func (s *Scratch) Resume(pt *ResumePoint, cfg Config, policy SellingPolicy) (Totals, error) {
	if err := cfg.Validate(); err != nil {
		return Totals{}, err
	}
	if policy == nil {
		return Totals{}, fmt.Errorf("simulate: nil selling policy")
	}
	if pt.card.PeriodHours == 0 {
		return Totals{}, fmt.Errorf("simulate: resume point was never captured")
	}
	if cfg.Instance != pt.card {
		return Totals{}, fmt.Errorf("simulate: resume point of card %s resumed under card %s", pt.card.Name, cfg.Instance.Name)
	}
	cfg.RecordSchedules = false
	return s.replay(pt.demand, pt.newRes, cfg, policy, pt, nil)
}

// ForkAge is how long after a user's first reservation a replay under
// policy stays the Keep-Reserved replay: the smallest checkpoint age in
// (0, periodHours) of a shared-age or multi-checkpoint policy, 0 for a
// PerInstancePolicy, and -1 when the policy never sells (or is nil).
// It depends on the policy alone, so a grid resolves it once per cell.
func ForkAge(policy SellingPolicy, periodHours int) int {
	if policy == nil {
		return -1
	}
	if _, ok := policy.(PerInstancePolicy); ok {
		return 0
	}
	ages := checkpointAges(policy, periodHours)
	if len(ages) == 0 {
		return -1
	}
	return ages[0]
}

// ForkHour is the latest hour Resume accepts for a policy of the given
// ForkAge on a user whose first reservation is at hour firstRes (-1 if
// the user never reserves): firstRes + forkAge, or the horizon when
// the policy never sells, the user never reserves or the sum lies
// beyond it.
func ForkHour(forkAge, firstRes, horizon int) int {
	if forkAge < 0 || firstRes < 0 || firstRes+forkAge > horizon {
		return horizon
	}
	return firstRes + forkAge
}

// replay is the engine kernel behind Run, Totals, Trunk and Resume:
// one event-segment loop, started at hour 0 or, with from set, at
// from's hour on the state from holds. Each pass handles one event
// hour's captures, expiries, activation and checkpoints in the hourly
// order, then serves the hours up to the next event hour on the window
// they leave (serve). Inputs must have passed validateRun. With
// cfg.RecordSchedules set each instance's busy schedule is recorded
// into s.scheds, one period-long window per instance. Each capture
// point, whose hour is preset, is filled just before its hour. On
// return s.slab holds the replay's instances in reservation order. The
// only error is a resume point later than the policy's first
// checkpoint.
func (s *Scratch) replay(demand, newRes []int, cfg Config, policy SellingPolicy, from *ResumePoint, capture []ResumePoint) (Totals, error) {
	it := cfg.Instance
	period := it.PeriodHours
	alphaHourly := it.ReservedHourly
	horizon := len(demand)
	recordSchedules := cfg.RecordSchedules
	s.ran, s.sold = nil, 0

	s.sharedAges = appendCheckpointAges(s.sharedAges, policy, period)
	sharedAges := s.sharedAges
	perInst, isPerInstance := policy.(PerInstancePolicy)

	// Batch list: one entry per hour with reservations, counted first
	// so it is sized exactly; a resume point carries its trunk's.
	t0 := 0
	var batches []batch
	if from != nil {
		t0, batches = from.hour, from.batches
	} else {
		nb := 0
		for _, n := range newRes {
			if n > 0 {
				nb++
			}
		}
		s.batches = grow(s.batches, nb)
		batches = s.batches
		bi, lo := 0, 0
		for t, n := range newRes {
			if n > 0 {
				batches[bi] = batch{hour: t, lo: lo, hi: lo + n}
				bi++
				lo += n
			}
		}
	}
	total := 0
	if len(batches) > 0 {
		total = batches[len(batches)-1].hi
	}

	// Slab of all instances ever reserved, in reservation order (start
	// ascending, batch index ascending).
	s.slab = grow(s.slab, total)
	slab := s.slab
	var soloAges []int // backing for per-instance single-age slices
	if isPerInstance {
		s.soloAges = grow(s.soloAges, total)
		soloAges = s.soloAges
	}
	if recordSchedules {
		// The kernel only ever sets entries, so reused capacity is
		// cleared first; a fresh allocation is already zero. Growth at
		// least doubles: which users a pool worker's Scratch replays,
		// and so how often their largest schedule so far is outgrown,
		// depends on timing, and doubling keeps the reallocations few
		// in any order.
		if cap(s.scheds) < total*period {
			s.scheds = make([]bool, total*period, max(total*period, 2*cap(s.scheds)))
		} else {
			s.scheds = s.scheds[:total*period]
			clear(s.scheds)
		}
	}
	for _, b := range batches {
		for j := b.lo; j < b.hi; j++ {
			in := &slab[j]
			*in = instState{
				rec:    InstanceRecord{Start: b.hour, BatchIndex: j - b.lo + 1, SoldAt: -1, WorkedAtCheckpoint: -1},
				expiry: b.hour + period,
			}
			if isPerInstance {
				if age := perInst.InstanceCheckpointAge(b.hour, j-b.lo+1, period); age > 0 && age < period {
					soloAges[j] = age
					in.ckAges = soloAges[j : j+1 : j+1]
				}
			} else {
				in.ckAges = sharedAges
			}
			if recordSchedules {
				in.rec.Schedule = s.scheds[j*period : (j+1)*period : (j+1)*period]
			}
		}
	}

	// Checkpoint events, generated in working-sequence order (start
	// ascending, batch index descending — the order the reference
	// engine consults them in) and stably sorted by hour, so each
	// hour's events keep that order.
	var events []event
	if total > 0 && (len(sharedAges) > 0 || isPerInstance) {
		n := total
		if !isPerInstance {
			n *= len(sharedAges)
		}
		events = grow(s.events, n)[:0]
		for _, b := range batches {
			for j := b.hi - 1; j >= b.lo; j-- {
				for _, a := range slab[j].ckAges {
					if h := b.hour + a; h < horizon {
						events = append(events, event{hour: h, j: j})
					}
				}
			}
		}
		s.events = events
		if !slices.IsSortedFunc(events, byHour) {
			slices.SortStableFunc(events, byHour)
		}
		if len(events) > 0 && events[0].hour < t0 {
			return Totals{}, fmt.Errorf("simulate: policy consults an instance at hour %d, before resume hour %d",
				events[0].hour, t0)
		}
	}

	// The totals accumulate in scalar locals, which the compiler keeps
	// in registers across the hour loop; a struct field would be a
	// memory round trip per add. The adds and their order are Eq. (1)'s,
	// less the adds of +0 (an hour with no on-demand overflow, no
	// reservation or no checkpoint): each accumulator starts at +0 and
	// only ever adds finite non-negative terms, so adding +0 leaves it
	// unchanged and skipping the add keeps every float result bit for
	// bit.
	var onDemandCost, upfrontCost, reservedCost, saleIncome float64
	var sold int
	// active holds the currently active (unexpired, unsold) instances'
	// slab indices in working-sequence order; the window active[head:]
	// is the live list. Expiry only ever removes a prefix (constant
	// period ⇒ expiry order = start order), so head advances instead of
	// reslicing; sales splice the window in place on the rare hours a
	// sale happens. Every instance is appended at most once, so
	// capacity total is never outgrown. serve's per-demand hour
	// counters, one per window position, are carved from the same
	// allocation and start zeroed.
	s.active = grow(s.active, 2*total)
	active := s.active[:0:total]
	cnt := s.active[total:]
	clear(cnt)
	head := 0
	bi := 0 // next batch to activate
	if from != nil {
		// Before from's hour nothing sold, so the active list is every
		// batch so far in activation order, and from knows its head.
		for _, b := range batches[:from.activated] {
			for j := b.hi - 1; j >= b.lo; j-- {
				active = append(active, j)
			}
		}
		for j, w := range from.worked {
			slab[j].rec.Worked = w
		}
		bi, head = from.activated, from.head
		onDemandCost, upfrontCost, reservedCost = from.onDemand, from.upfront, from.reserved
	}
	ei := 0 // next checkpoint event
	ci, nextCapture := 0, horizon+1
	if len(capture) > 0 {
		nextCapture = capture[0].hour
	}

	// The window changes only at event hours: a capture, an expiry, an
	// activation or a checkpoint. Each pass of the loop handles hour t's
	// events in the hourly order, then serves the segment [t, end) up
	// to the next event hour on the window they leave.
	for t := t0; t < horizon; {
		for t == nextCapture {
			capture[ci].capture(demand, newRes, it, onDemandCost, upfrontCost, reservedCost, head, batches, bi, slab)
			ci++
			nextCapture = horizon + 1
			if ci < len(capture) {
				nextCapture = capture[ci].hour
			}
		}

		// Drop expired instances: always a prefix of the window.
		for head < len(active) && slab[active[head]].expiry <= t {
			head++
		}

		// 1. Activate this hour's new reservations. Everything already
		// active started earlier (less remaining period), and within the
		// batch the higher index works first, so the batch is appended
		// at the tail in descending index order.
		if bi < len(batches) && batches[bi].hour == t {
			b := batches[bi]
			bi++
			for j := b.hi - 1; j >= b.lo; j-- {
				active = append(active, j)
			}
			upfrontCost += float64(newRes[t]) * it.Upfront
		}

		// 2. Selling checkpoints: only the instances scheduled for hour t.
		if ei < len(events) && events[ei].hour == t {
			due := ei
			for ei < len(events) && events[ei].hour == t {
				ei++
			}
			var soldNow int
			var income float64
			active, soldNow, income = checkpoints(t, events[due:ei], slab, active, head, policy, &cfg)
			sold += soldNow
			saleIncome += income
		}

		// The segment ends at the next event hour: the window's first
		// expiry (the head expires first), the next batch, checkpoint or
		// capture, or the horizon.
		end := min(horizon, nextCapture)
		if head < len(active) {
			end = min(end, slab[active[head]].expiry)
		}
		if bi < len(batches) {
			end = min(end, batches[bi].hour)
		}
		if ei < len(events) {
			end = min(end, events[ei].hour)
		}

		// 3. and 4. Serve the segment's demand in working sequence and
		// book C_t per Eq. (1), on the window its first hour's events left.
		onDemandCost, reservedCost = serve(demand[t:end], t, active[head:], cnt, slab, recordSchedules,
			it.OnDemandHourly, alphaHourly, onDemandCost, reservedCost)
		t = end
	}
	for ; ci < len(capture); ci++ {
		capture[ci].capture(demand, newRes, it, onDemandCost, upfrontCost, reservedCost, head, batches, bi, slab)
	}

	// Idle hours: every active instance-hour that served no demand,
	// summed per instance from its lifetime and working hours.
	idle := 0
	for j := range slab {
		in := &slab[j]
		end := min(in.expiry, horizon)
		if in.sold {
			end = in.rec.SoldAt
		}
		idle += end - in.rec.Start - in.rec.Worked
	}
	cfg.Metrics.RecordRun(horizon-t0, total, sold)
	s.ran, s.sold = batches, sold
	return Totals{
		Cost: CostBreakdown{
			OnDemand:       onDemandCost,
			Upfront:        upfrontCost,
			ReservedHourly: reservedCost,
			SaleIncome:     saleIncome,
		},
		Sold:      sold,
		IdleHours: idle,
	}, nil
}

// serve is steps 3 and 4 of the hour loop over a segment: the hours
// from t0 on with the given demand, on a window win that no event
// changes within them. The instance at window position p serves
// exactly the hours with d_t > p, so an hour only counts its demand —
// cnt[v] the hours with d_t = v < w, full those with d_t ≥ w, for a
// window of w — and o_t = max(0, d_t - w) on-demand instances cover
// the overflow. At the end each position is credited its working
// hours, so a checkpoint or capture at the next event hour reads every
// instance's Worked as the hour-by-hour count would have left it. cnt
// must hold at least w zeros and is left zeroed. It returns the two
// accumulators the segment's hours add to.
func serve(hours []int, t0 int, win, cnt []int, slab []instState, schedules bool, onDemandRate, reservedRate, onDemandCost, reservedCost float64) (float64, float64) {
	w := len(win)
	cnt = cnt[:w]
	full := 0
	for _, d := range hours {
		if d >= w {
			full++
			if d > w {
				onDemandCost += float64(d-w) * onDemandRate
			}
		} else {
			cnt[d]++
		}
		reservedCost += float64(w) * reservedRate
	}
	// Credit from the tail: position p worked the hours with d_t ≥ w
	// plus those with p < d_t < w, and its schedule is busy exactly
	// there; a position that worked none of them keeps its cleared
	// schedule.
	worked := full
	for p := w - 1; p >= 0; p-- {
		in := &slab[win[p]]
		in.rec.Worked += worked
		if schedules && worked > 0 {
			sched := in.rec.Schedule[t0-in.rec.Start:][:len(hours)]
			for i, d := range hours {
				sched[i] = d > p
			}
		}
		worked += cnt[p]
		cnt[p] = 0
	}
	return onDemandCost, reservedCost
}

// capture fills pt from a never-selling replay's state just before
// pt's hour: the accumulators, the head, the replay's batches, how many
// of them are active and their instances' working time. It reuses pt's
// buffers.
func (pt *ResumePoint) capture(demand, newRes []int, card pricing.InstanceType, onDemand, upfront, reserved float64, head int, batches []batch, activated int, slab []instState) {
	pt.demand, pt.newRes, pt.card = demand, newRes, card
	pt.onDemand, pt.upfront, pt.reserved = onDemand, upfront, reserved
	pt.head = head
	pt.batches = append(pt.batches[:0], batches...)
	pt.activated = activated
	pt.worked = pt.worked[:0]
	if activated > 0 {
		for j := range batches[activated-1].hi {
			pt.worked = append(pt.worked, slab[j].rec.Worked)
		}
	}
}

// checkpoints is step 2 of the hourly loop: it consults the policy for
// the instances due at hour t, in working-sequence order, and splices
// the sold ones out of the live window active[head:]. It returns the
// active list, the number sold and the hour's sale income. Only hours
// with a due checkpoint call it, which keeps its state out of the
// every-hour path's registers.
func checkpoints(t int, due []event, slab []instState, active []int, head int, policy SellingPolicy, cfg *Config) ([]int, int, float64) {
	period := cfg.Instance.PeriodHours
	saleKeep := 1 - cfg.MarketFee
	var soldNow int
	var income float64
	for _, e := range due {
		in := &slab[e.j]
		if in.sold || in.nextCk >= len(in.ckAges) || t-in.rec.Start != in.ckAges[in.nextCk] {
			continue
		}
		in.nextCk++
		in.rec.WorkedAtCheckpoint = in.rec.Worked
		ck := Checkpoint{
			Hour:      t,
			Start:     in.rec.Start,
			Age:       t - in.rec.Start,
			Worked:    in.rec.Worked,
			Remaining: in.expiry - t,
		}
		if policy.ShouldSell(ck) {
			in.sold = true
			in.rec.SoldAt = t
			soldNow++
			remFrac := float64(in.expiry-t) / float64(period)
			income += cfg.SellingDiscount * remFrac * cfg.Instance.Upfront * saleKeep
		}
	}
	if soldNow > 0 {
		w := active[head:]
		k := 0
		for _, j := range w {
			if !slab[j].sold {
				w[k] = j
				k++
			}
		}
		active = active[:head+k]
	}
	return active, soldNow, income
}

// KeepReserved is the paper's Keep-Reserved benchmark: never sell.
// It is defined here (rather than in package core) because the engine
// itself uses it as the neutral default in helpers.
type KeepReserved struct{}

// CheckpointAge implements SellingPolicy: no checkpoint.
func (KeepReserved) CheckpointAge(int) int { return -1 }

// ShouldSell implements SellingPolicy.
func (KeepReserved) ShouldSell(Checkpoint) bool { return false }
