package simulate

import "sort"

// refInstance is the reference engine's per-reservation state — the
// pre-optimization engine's representation, kept verbatim.
type refInstance struct {
	rec    InstanceRecord
	sold   bool
	expiry int   // Start + T
	ckAges []int // decision ages, strictly increasing
	nextCk int   // index of the next pending decision age
}

// runReference is the original O(T·n log n) engine, kept test-only as
// the semantic oracle for the optimized Run: it re-sorts the active
// list every hour and scans every active instance for checkpoint
// decisions, and writes each hour's accounting row inside its loop.
// The differential suite (differential_test.go) and the fuzz target
// pin Run to produce field-for-field identical Results — including
// bit-identical floats, which both engines guarantee by accumulating
// income in the same working-sequence order — and HourRows of Run's
// instances to reproduce these rows.
func runReference(demand, newRes []int, cfg Config, policy SellingPolicy) (Result, []HourRecord, error) {
	if err := validateRun(demand, newRes, cfg, policy); err != nil {
		return Result{}, nil, err
	}

	it := cfg.Instance
	period := it.PeriodHours
	alphaHourly := it.ReservedHourly
	saleKeep := 1 - cfg.MarketFee

	sharedAges := checkpointAges(policy, period)
	perInst, isPerInstance := policy.(PerInstancePolicy)

	var res Result
	rows := make([]HourRecord, len(demand))
	var instances []*refInstance
	// active holds the currently active (unexpired, unsold) instances
	// in working-sequence order: earlier start first (less remaining
	// period), higher batch index first within a batch.
	var active []*refInstance
	anyCheckpoints := len(sharedAges) > 0 || isPerInstance

	for t := range demand {
		// Drop expired instances.
		live := active[:0]
		for _, in := range active {
			if t < in.expiry {
				live = append(live, in)
			}
		}
		active = live

		// 1. Activate this hour's new reservations.
		for i := 1; i <= newRes[t]; i++ {
			in := &refInstance{
				rec:    InstanceRecord{Start: t, BatchIndex: i, SoldAt: -1, WorkedAtCheckpoint: -1},
				expiry: t + period,
			}
			if isPerInstance {
				if age := perInst.InstanceCheckpointAge(t, i, period); age > 0 && age < period {
					in.ckAges = []int{age}
				}
			} else {
				in.ckAges = sharedAges
			}
			if cfg.RecordSchedules {
				in.rec.Schedule = make([]bool, period)
			}
			instances = append(instances, in)
			active = append(active, in)
		}
		// Restore working-sequence order: new instances have the most
		// remaining period so they sort last; within the new batch the
		// higher index must come first.
		sort.SliceStable(active, func(a, b int) bool {
			ia, ib := active[a], active[b]
			if ia.rec.Start != ib.rec.Start {
				return ia.rec.Start < ib.rec.Start
			}
			return ia.rec.BatchIndex > ib.rec.BatchIndex
		})

		// 2. Selling checkpoints.
		var soldNow int
		var income float64
		if anyCheckpoints {
			kept := active[:0]
			for _, in := range active {
				if in.nextCk >= len(in.ckAges) || t-in.rec.Start != in.ckAges[in.nextCk] {
					kept = append(kept, in)
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
					income += cfg.SellingDiscount * remFrac * it.Upfront * saleKeep
				} else {
					kept = append(kept, in)
				}
			}
			active = kept
		}

		// 3. Working sequence: first d_t active instances serve demand.
		d := demand[t]
		busy := d
		if busy > len(active) {
			busy = len(active)
		}
		for _, in := range active[:busy] {
			in.rec.Worked++
			if cfg.RecordSchedules {
				in.rec.Schedule[t-in.rec.Start] = true
			}
		}
		onDemand := d - len(active)
		if onDemand < 0 {
			onDemand = 0
		}

		// 4. Book C_t per Eq. (1).
		rows[t] = HourRecord{
			Demand:    d,
			NewlyRes:  newRes[t],
			ActiveRes: len(active),
			OnDemand:  onDemand,
			Sold:      soldNow,
		}
		res.Cost.OnDemand += float64(onDemand) * it.OnDemandHourly
		res.Cost.Upfront += float64(newRes[t]) * it.Upfront
		res.Cost.ReservedHourly += float64(len(active)) * alphaHourly
		res.Cost.SaleIncome += income
	}

	res.Instances = make([]InstanceRecord, len(instances))
	for i, in := range instances {
		res.Instances[i] = in.rec
	}
	return res, rows, nil
}
