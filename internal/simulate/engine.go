package simulate

import (
	"fmt"
	"slices"
	"sort"
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

// validateRun is the shared input validation of Run, Scratch.Totals and
// the test-only reference engine; all must reject identical inputs
// identically.
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

// Scratch is the replay engine's reusable working memory: the batch
// offsets, the checkpoint event schedule, the active list, the
// instance slab and the per-instance age backing that Run would
// otherwise allocate afresh for every replay. Each replay grows the
// buffers on demand and overwrites or clears every element it reads,
// so nothing leaks from one replay into the next.
//
// The zero value is ready to use. A Scratch is not safe for concurrent
// use: a worker pool gives each goroutine its own.
type Scratch struct {
	batchOff   []int
	evOff      []int
	events     []int
	active     []int
	slab       []instState
	soloAges   []int
	sharedAges []int
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
// the given selling policy and returns the full accounting.
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
// The engine exploits two structural invariants to stay out of the
// per-hour hot path's way. First, because PeriodHours is constant, the
// active list stays in working-sequence order by construction: expiring
// instances are always a prefix (head-trim) and each hour's new batch
// always belongs at the tail (appended in descending batch index), so
// no per-hour sort is needed. Second, every checkpoint hour is known at
// activation time, so consultations are bucketed into a per-hour event
// schedule up front instead of scanning the active list every hour.
// The whole replay makes O(1) heap allocations: instance state, hour
// records, checkpoint events and (optionally) schedules live in
// pre-sized slabs. Run uses a fresh Scratch; Scratch.Totals is the same
// replay on a caller-owned one.
func Run(demand, newRes []int, cfg Config, policy SellingPolicy) (Result, error) {
	if err := validateRun(demand, newRes, cfg, policy); err != nil {
		return Result{}, err
	}
	var s Scratch
	res := Result{Hours: make([]HourRecord, len(demand))}
	tot := s.replay(demand, newRes, cfg, policy, &res)
	res.Cost = tot.Cost
	res.Instances = make([]InstanceRecord, len(s.slab))
	for j := range s.slab {
		res.Instances[j] = s.slab[j].rec
	}
	return res, nil
}

// Totals is one replay's lean outcome: the exact cost breakdown a full
// Result would carry, plus the aggregates the experiment drivers
// consume, without per-hour or per-instance records.
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
// float accumulation order, so Cost is bit-identical to Run's — but
// returns only the lean Totals (Cost, Sold, IdleHours) and
// materializes neither Hours nor Instances.
// Config.RecordSchedules is ignored, since no schedule is returned.
// On a warm Scratch whose buffers already fit the input, a replay
// under a single-checkpoint, per-instance or never-selling policy
// allocates nothing.
func (s *Scratch) Totals(demand, newRes []int, cfg Config, policy SellingPolicy) (Totals, error) {
	if err := validateRun(demand, newRes, cfg, policy); err != nil {
		return Totals{}, err
	}
	cfg.RecordSchedules = false // no schedule to return, so none to record
	return s.replay(demand, newRes, cfg, policy, nil), nil
}

// replay is the engine kernel behind Run and Totals. Inputs must have
// passed validateRun. When res is non-nil its len(demand) Hours are
// written; with cfg.RecordSchedules set each instance's busy schedule
// is recorded into a freshly allocated slab, since the caller's
// InstanceRecords keep it. On return s.slab holds the replay's
// instances in reservation order.
func (s *Scratch) replay(demand, newRes []int, cfg Config, policy SellingPolicy, res *Result) Totals {
	it := cfg.Instance
	period := it.PeriodHours
	alphaHourly := it.ReservedHourly
	horizon := len(demand)

	s.sharedAges = appendCheckpointAges(s.sharedAges, policy, period)
	sharedAges := s.sharedAges
	perInst, isPerInstance := policy.(PerInstancePolicy)

	// Slab of all instances ever reserved, in reservation order (start
	// ascending, batch index ascending). batchOff[t]..batchOff[t+1] is
	// hour t's batch.
	total := 0
	s.batchOff = grow(s.batchOff, horizon+1)
	batchOff := s.batchOff
	for t, n := range newRes {
		batchOff[t] = total
		total += n
	}
	batchOff[horizon] = total

	s.slab = grow(s.slab, total)
	slab := s.slab
	var soloAges []int // backing for per-instance single-age slices
	if isPerInstance {
		s.soloAges = grow(s.soloAges, total)
		soloAges = s.soloAges
	}
	var schedSlab []bool
	if cfg.RecordSchedules {
		schedSlab = make([]bool, total*period)
	}
	for t := 0; t < horizon; t++ {
		for i := 1; i <= newRes[t]; i++ {
			j := batchOff[t] + i - 1
			in := &slab[j]
			*in = instState{
				rec:    InstanceRecord{Start: t, BatchIndex: i, SoldAt: -1, WorkedAtCheckpoint: -1},
				expiry: t + period,
			}
			if isPerInstance {
				if age := perInst.InstanceCheckpointAge(t, i, period); age > 0 && age < period {
					soloAges[j] = age
					in.ckAges = soloAges[j : j+1 : j+1]
				}
			} else {
				in.ckAges = sharedAges
			}
			if cfg.RecordSchedules {
				in.rec.Schedule = schedSlab[j*period : (j+1)*period : (j+1)*period]
			}
		}
	}

	// Checkpoint event schedule: for each hour, the slab indices of the
	// instances with a decision age falling on that hour, in working-
	// sequence order (start ascending, batch index descending — the
	// order the reference engine consults them in). Built with one
	// counting pass and one fill pass over two shared arrays.
	var evOff []int // evOff[t]..evOff[t+1] indexes events for hour t
	var events []int
	hasEvents := total > 0 && (len(sharedAges) > 0 || isPerInstance)
	if hasEvents {
		s.evOff = grow(s.evOff, horizon+2)
		evOff = s.evOff
		clear(evOff)
		for j := range slab {
			in := &slab[j]
			for _, a := range in.ckAges {
				if h := in.rec.Start + a; h < horizon {
					evOff[h+2]++
				}
			}
		}
		for t := 2; t <= horizon+1; t++ {
			evOff[t] += evOff[t-1]
		}
		s.events = grow(s.events, evOff[horizon+1])
		events = s.events
		// Fill in (start asc, batch index desc) order so each bucket
		// comes out in working-sequence order; evOff[t+1] doubles as the
		// running fill cursor for hour t and ends at its final value.
		for t := 0; t < horizon; t++ {
			for j := batchOff[t+1] - 1; j >= batchOff[t]; j-- {
				for _, a := range slab[j].ckAges {
					if h := t + a; h < horizon {
						events[evOff[h+1]] = j
						evOff[h+1]++
					}
				}
			}
		}
	}

	// The totals accumulate in scalar locals, which the compiler keeps
	// in registers across the hourly loop; a struct field would be a
	// memory round trip per add. The adds and their order are Eq. (1)'s,
	// so the float results are unchanged.
	var onDemandCost, upfrontCost, reservedCost, saleIncome float64
	var sold int
	// active holds the currently active (unexpired, unsold) instances'
	// slab indices in working-sequence order; the window active[head:]
	// is the live list. Expiry only ever removes a prefix (constant
	// period ⇒ expiry order = start order), so head advances instead of
	// reslicing; sales splice the window in place on the rare hours a
	// sale happens. Every instance is appended at most once, so
	// capacity total is never outgrown.
	if cap(s.active) < total {
		s.active = make([]int, 0, total)
	}
	active := s.active[:0]
	head := 0

	for t := 0; t < horizon; t++ {
		// Drop expired instances: always a prefix of the window.
		for head < len(active) && slab[active[head]].expiry <= t {
			head++
		}

		// 1. Activate this hour's new reservations. Everything already
		// active started earlier (less remaining period), and within the
		// batch the higher index works first, so the batch is appended
		// at the tail in descending index order.
		for j := batchOff[t+1] - 1; j >= batchOff[t]; j-- {
			active = append(active, j)
		}

		// 2. Selling checkpoints: only the instances scheduled for hour t.
		var soldNow int
		var income float64
		if hasEvents && evOff[t] < evOff[t+1] {
			active, soldNow, income = checkpoints(t, events[evOff[t]:evOff[t+1]], slab, active, head, policy, &cfg)
			sold += soldNow
		}

		// 3. Working sequence: first d_t active instances serve demand.
		win := active[head:]
		d := demand[t]
		busy := d
		if busy > len(win) {
			busy = len(win)
		}
		for _, j := range win[:busy] {
			in := &slab[j]
			in.rec.Worked++
			if cfg.RecordSchedules {
				in.rec.Schedule[t-in.rec.Start] = true
			}
		}
		onDemand := d - len(win)
		if onDemand < 0 {
			onDemand = 0
		}

		// 4. Book C_t per Eq. (1).
		if res != nil {
			res.Hours[t] = HourRecord{
				Demand:    d,
				NewlyRes:  newRes[t],
				ActiveRes: len(win),
				OnDemand:  onDemand,
				Sold:      soldNow,
			}
		}
		onDemandCost += float64(onDemand) * it.OnDemandHourly
		upfrontCost += float64(newRes[t]) * it.Upfront
		reservedCost += float64(len(win)) * alphaHourly
		saleIncome += income
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
	cfg.Metrics.RecordRun(horizon, total, sold)
	return Totals{
		Cost: CostBreakdown{
			OnDemand:       onDemandCost,
			Upfront:        upfrontCost,
			ReservedHourly: reservedCost,
			SaleIncome:     saleIncome,
		},
		Sold:      sold,
		IdleHours: idle,
	}
}

// checkpoints is step 2 of the hourly loop: it consults the policy for
// the instances due at hour t, in working-sequence order, and splices
// the sold ones out of the live window active[head:]. It returns the
// active list, the number sold and the hour's sale income. Only hours
// with a due checkpoint call it, which keeps its state out of the
// every-hour path's registers.
func checkpoints(t int, due []int, slab []instState, active []int, head int, policy SellingPolicy, cfg *Config) ([]int, int, float64) {
	period := cfg.Instance.PeriodHours
	saleKeep := 1 - cfg.MarketFee
	var soldNow int
	var income float64
	for _, j := range due {
		in := &slab[j]
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
