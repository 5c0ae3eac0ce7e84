package simulate

import (
	"bytes"
	"encoding/csv"
	"errors"
	"strings"
	"testing"
)

// resultFixture is two instances reserved at hour 0, busy for the
// first 10 hours and both sold at age 20, with the rows HourRows
// derives for the run.
func resultFixture(t *testing.T) (Result, []HourRecord) {
	t.Helper()
	n := 40
	demand := constSeries(0, n)
	for i := 0; i < 10; i++ {
		demand[i] = 2
	}
	newRes := constSeries(0, n)
	newRes[0] = 2
	res, err := Run(demand, newRes, testConfig(), sellAlways{age: 20})
	if err != nil {
		t.Fatal(err)
	}
	return res, hourRows(t, demand, newRes, testConfig(), res)
}

func TestResultHelpers(t *testing.T) {
	_, rows := resultFixture(t)
	peak, onDemand, active, busy := 0, 0, 0, 0
	for _, h := range rows {
		peak = max(peak, h.ActiveRes)
		onDemand += h.OnDemand
		active += h.ActiveRes
		busy += min(h.Demand-h.OnDemand, h.ActiveRes)
	}
	if peak != 2 {
		t.Errorf("peak r_t = %d, want 2", peak)
	}
	if onDemand != 0 {
		t.Errorf("sum of o_t = %d, want 0", onDemand)
	}
	// Busy 2x10 hours of 2x20 active reserved hours (both sold at 20).
	if active != 40 || busy != 20 {
		t.Errorf("active/busy reserved hours = %d/%d, want 40/20", active, busy)
	}
}

func TestResultUtilizationEmpty(t *testing.T) {
	demand, newRes := []int{1, 1}, []int{0, 0}
	res, err := Run(demand, newRes, testConfig(), KeepReserved{})
	if err != nil {
		t.Fatal(err)
	}
	onDemand := 0
	for h, row := range hourRows(t, demand, newRes, testConfig(), res) {
		if row.ActiveRes != 0 {
			t.Errorf("hour %d: r_t = %d with no reservations", h, row.ActiveRes)
		}
		onDemand += row.OnDemand
	}
	if onDemand != 2 {
		t.Errorf("sum of o_t = %d, want 2", onDemand)
	}
}

func TestCumulativeCostMatchesTotal(t *testing.T) {
	res, rows := resultFixture(t)
	it := testInstance()
	// Income per sale: a * R * rem/T = 0.8 * 100 * 20/40 = 40.
	var acc float64
	for _, h := range rows {
		acc += float64(h.OnDemand)*it.OnDemandHourly +
			float64(h.NewlyRes)*it.Upfront +
			float64(h.ActiveRes)*it.ReservedHourly -
			float64(h.Sold)*40
	}
	if !almostEqual(acc, res.Cost.Total(), 1e-9) {
		t.Errorf("per-row Eq. (1) sum %v != total %v", acc, res.Cost.Total())
	}
}

func TestWriteHoursCSV(t *testing.T) {
	_, rows := resultFixture(t)
	var buf bytes.Buffer
	if err := WriteHoursCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(rows)+1 {
		t.Fatalf("rows = %d, want %d", len(records), len(rows)+1)
	}
	if !strings.HasPrefix(strings.Join(records[0], ","), "hour,demand") {
		t.Errorf("header = %v", records[0])
	}
	// Row 21 (hour 20) records the two sales.
	if records[21][5] != "2" {
		t.Errorf("sold at hour 20 = %s, want 2", records[21][5])
	}
}

// TestHourRowsMalformed feeds HourRows inputs no replay produces; each
// is an error rather than an index out of range.
func TestHourRowsMalformed(t *testing.T) {
	demand, newRes := constSeries(1, 10), constSeries(0, 10)
	const period = 6
	kept := InstanceRecord{Start: 2, SoldAt: -1}
	for _, c := range []struct {
		name           string
		demand, newRes []int
		period         int
		rec            InstanceRecord
	}{
		{"length mismatch", demand, newRes[:9], period, kept},
		{"zero period", demand, newRes, 0, kept},
		{"start before horizon", demand, newRes, period, InstanceRecord{Start: -1, SoldAt: -1}},
		{"start at horizon", demand, newRes, period, InstanceRecord{Start: 10, SoldAt: -1}},
		{"sold at start", demand, newRes, period, InstanceRecord{Start: 2, SoldAt: 2}},
		{"sold before start", demand, newRes, period, InstanceRecord{Start: 2, SoldAt: 1}},
		{"sold at expiry", demand, newRes, period, InstanceRecord{Start: 2, SoldAt: 8}},
		{"sold past horizon", demand, newRes, 20, InstanceRecord{Start: 2, SoldAt: 10}},
		{"sold at -2", demand, newRes, period, InstanceRecord{Start: 2, SoldAt: -2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows, err := HourRows(c.demand, c.newRes, c.period, []InstanceRecord{kept, c.rec})
			if err == nil || rows != nil {
				t.Fatalf("HourRows = %d rows, error %v; want an error", len(rows), err)
			}
			if c.name == "length mismatch" && !errors.Is(err, ErrLengthMismatch) {
				t.Errorf("error %v is not ErrLengthMismatch", err)
			}
		})
	}
	// The boundaries themselves are valid: the last start hour, a sale
	// one hour after the start and one hour before expiry.
	for _, rec := range []InstanceRecord{{Start: 9, SoldAt: -1}, {Start: 2, SoldAt: 3}, {Start: 2, SoldAt: 7}} {
		if _, err := HourRows(demand, newRes, period, []InstanceRecord{rec}); err != nil {
			t.Errorf("record %+v rejected: %v", rec, err)
		}
	}
}
