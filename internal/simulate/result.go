package simulate

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// HourRows rebuilds a replay's per-hour accounting rows (d_t, n_t, r_t,
// o_t, s_t) from its inputs and the per-instance records Run (or
// Scratch.Records) returned for them: instance i is active during
// [Start, SoldAt) when sold and [Start, Start+period) otherwise, and
// counts toward s_t at t = SoldAt. The active counts come from one
// difference array over those intervals, so the cost is
// O(instances + hours) and the rows equal the ones the replay itself
// saw. A record whose Start lies outside the horizon, or whose SoldAt
// is neither -1 nor inside (Start, Start+period) and the horizon, is an
// error, as are series of different lengths and a non-positive period.
func HourRows(demand, newRes []int, period int, instances []InstanceRecord) ([]HourRecord, error) {
	if len(demand) != len(newRes) {
		return nil, fmt.Errorf("%w: %d demand hours, %d reservation hours",
			ErrLengthMismatch, len(demand), len(newRes))
	}
	if period <= 0 {
		return nil, fmt.Errorf("simulate: period %d must be positive", period)
	}
	horizon := len(demand)
	rows := make([]HourRecord, horizon)
	// ActiveRes first holds the difference array: +1 at each instance's
	// first active hour, -1 at the hour it stops being active.
	for i, in := range instances {
		if in.Start < 0 || in.Start >= horizon {
			return nil, fmt.Errorf("simulate: instance %d starts at hour %d, outside [0, %d)", i, in.Start, horizon)
		}
		end := horizon
		if period < horizon-in.Start {
			end = in.Start + period
		}
		if in.SoldAt != -1 {
			if in.SoldAt <= in.Start || in.SoldAt-in.Start >= period || in.SoldAt >= horizon {
				return nil, fmt.Errorf("simulate: instance %d reserved at hour %d sold at hour %d, outside (%d, %d) within [0, %d)",
					i, in.Start, in.SoldAt, in.Start, in.Start+period, horizon)
			}
			end = in.SoldAt
			rows[end].Sold++
		}
		rows[in.Start].ActiveRes++
		if end < horizon {
			rows[end].ActiveRes--
		}
	}
	active := 0
	for t := range rows {
		r := &rows[t]
		active += r.ActiveRes
		r.Demand, r.NewlyRes, r.ActiveRes = demand[t], newRes[t], active
		r.OnDemand = max(0, demand[t]-active)
	}
	return rows, nil
}

// WriteHoursCSV writes per-hour accounting rows (t, d_t, n_t, r_t, o_t,
// s_t) as CSV for external plotting.
func WriteHoursCSV(w io.Writer, rows []HourRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"hour", "demand", "new_reserved", "active_reserved", "on_demand", "sold"}); err != nil {
		return fmt.Errorf("simulate: csv: %w", err)
	}
	for t, h := range rows {
		rec := []string{
			strconv.Itoa(t),
			strconv.Itoa(h.Demand),
			strconv.Itoa(h.NewlyRes),
			strconv.Itoa(h.ActiveRes),
			strconv.Itoa(h.OnDemand),
			strconv.Itoa(h.Sold),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("simulate: csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("simulate: csv: %w", err)
	}
	return nil
}
