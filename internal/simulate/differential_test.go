package simulate

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rimarket/internal/pricing"
)

// This file pins the optimized Run to the reference engine
// (reference_test.go): over hundreds of seeded random cases covering
// every policy shape the engine distinguishes, both engines must
// produce field-for-field identical Results — including bit-identical
// float accounting, which holds because both accumulate income in the
// same working-sequence order. CI runs this under -race.

// diffFixed is a plain fixed-checkpoint policy with the paper's
// threshold shape: sell iff the working time is below the threshold.
type diffFixed struct {
	age       int
	threshold int
}

func (p diffFixed) CheckpointAge(int) int { return p.age }
func (p diffFixed) ShouldSell(ck Checkpoint) bool {
	return ck.Worked < p.threshold
}

// diffMulti revisits the decision at raw ages that may be duplicated,
// non-positive or beyond the period — the engine must clean them up.
type diffMulti struct {
	ages      []int
	threshold int
}

func (p diffMulti) CheckpointAge(int) int {
	if len(p.ages) == 0 {
		return -1
	}
	return p.ages[0]
}
func (p diffMulti) CheckpointAges(int) []int { return p.ages }
func (p diffMulti) ShouldSell(ck Checkpoint) bool {
	return ck.Worked < p.threshold
}

// diffPerInstance gives each instance a hash-derived age; roughly a
// third of the draws land outside (0, period) so some instances are
// never offered for sale, exactly as PerInstancePolicy allows.
type diffPerInstance struct {
	seed      uint64
	threshold int
}

func (p diffPerInstance) CheckpointAge(period int) int { return period / 2 }
func (p diffPerInstance) ShouldSell(ck Checkpoint) bool {
	return ck.Worked < p.threshold
}
func (p diffPerInstance) InstanceCheckpointAge(start, batchIndex, period int) int {
	h := p.seed ^ uint64(start)*0x9e3779b97f4a7c15 ^ uint64(batchIndex)*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0x94d049bb133111eb
	h ^= h >> 27
	return int(h%uint64(period+period/2+2)) - period/4
}

// diffCase is one sampled (demand, newRes, cfg, policy) tuple.
type diffCase struct {
	name   string
	demand []int
	newRes []int
	cfg    Config
	policy SellingPolicy
}

// sampleDiffCase draws a case from rng, cycling the policy shape so
// every shape gets an equal share of the budget.
func sampleDiffCase(rng *rand.Rand, i int) diffCase {
	horizon := rng.Intn(161) // 0..160, including the empty series
	period := 8 + rng.Intn(53)
	card := pricing.InstanceType{
		Name:           "diff.case",
		OnDemandHourly: []float64{0.5, 1.0, 1.7}[rng.Intn(3)],
		Upfront:        []float64{40, 100, 250}[rng.Intn(3)],
		ReservedHourly: []float64{0.1, 0.25}[rng.Intn(2)],
		PeriodHours:    period,
	}
	cfg := Config{
		Instance:        card,
		SellingDiscount: float64(rng.Intn(11)) / 10,
		RecordSchedules: rng.Intn(2) == 0,
	}
	switch rng.Intn(3) {
	case 0:
		cfg.MarketFee = 0.12
	case 1:
		cfg.MarketFee = rng.Float64() * 0.9
	}

	demand := make([]int, horizon)
	newRes := make([]int, horizon)
	for t := range demand {
		demand[t] = rng.Intn(9)
		if rng.Intn(3) == 0 {
			newRes[t] = rng.Intn(4)
		}
	}

	threshold := rng.Intn(period + 2)
	var policy SellingPolicy
	var shape string
	switch i % 5 {
	case 0:
		shape = "keep-reserved"
		policy = KeepReserved{}
	case 1:
		shape = "fixed"
		policy = diffFixed{age: rng.Intn(period+4) - 2, threshold: threshold}
	case 2:
		shape = "fixed-sell-all"
		policy = diffFixed{age: 1 + rng.Intn(period-1), threshold: period + 1}
	case 3:
		shape = "multi"
		ages := make([]int, 1+rng.Intn(5))
		for j := range ages {
			ages[j] = rng.Intn(period+6) - 3 // dirty on purpose
		}
		policy = diffMulti{ages: ages, threshold: threshold}
	default:
		shape = "per-instance"
		policy = diffPerInstance{seed: rng.Uint64(), threshold: threshold}
	}
	return diffCase{
		name:   fmt.Sprintf("case%03d/%s/T=%d/period=%d", i, shape, horizon, period),
		demand: demand,
		newRes: newRes,
		cfg:    cfg,
		policy: policy,
	}
}

// assertResultsIdentical fails with the first differing field rather
// than dumping both Results wholesale. The reference writes its rows
// inside its hour loop; Run's come from HourRows of its instances, so
// the comparison pins the derivation too.
func assertResultsIdentical(t *testing.T, c diffCase, got, want Result, wantRows []HourRecord) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Fatalf("Cost differs:\n got %+v\nwant %+v", got.Cost, want.Cost)
	}
	gotRows := hourRows(t, c.demand, c.newRes, c.cfg, got)
	if len(gotRows) != len(wantRows) {
		t.Fatalf("rows length %d, want %d", len(gotRows), len(wantRows))
	}
	for h := range wantRows {
		if gotRows[h] != wantRows[h] {
			t.Fatalf("hour %d differs:\n got %+v\nwant %+v", h, gotRows[h], wantRows[h])
		}
	}
	if len(got.Instances) != len(want.Instances) {
		t.Fatalf("Instances length %d, want %d", len(got.Instances), len(want.Instances))
	}
	for i := range want.Instances {
		g, w := got.Instances[i], want.Instances[i]
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("instance %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results differ outside known fields:\n got %+v\nwant %+v", got, want)
	}
}

// TestDifferentialEngineEquivalence is the PR's safety net for the
// optimized engine: ≥200 seeded cases, every policy shape, optimized
// Run ≡ runReference field for field.
func TestDifferentialEngineEquivalence(t *testing.T) {
	const cases = 250
	rng := rand.New(rand.NewSource(20180702)) // ICDCS'18 vintage
	for i := 0; i < cases; i++ {
		c := sampleDiffCase(rng, i)
		t.Run(c.name, func(t *testing.T) {
			want, wantRows, wantErr := runReference(c.demand, c.newRes, c.cfg, c.policy)
			got, gotErr := Run(c.demand, c.newRes, c.cfg, c.policy)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("error mismatch: got %v, reference %v", gotErr, wantErr)
			}
			if gotErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("error text mismatch: got %q, reference %q", gotErr, wantErr)
				}
				return
			}
			assertResultsIdentical(t, c, got, want, wantRows)
		})
	}
}

// TestDifferentialEngineErrors pins the two engines to reject invalid
// input identically (same error text), since they share validation.
func TestDifferentialEngineErrors(t *testing.T) {
	cfg := testConfig()
	badCases := []struct {
		name   string
		demand []int
		newRes []int
		cfg    Config
		policy SellingPolicy
	}{
		{"length", []int{1}, []int{0, 0}, cfg, KeepReserved{}},
		{"negative demand", []int{-4}, []int{0}, cfg, KeepReserved{}},
		{"negative res", []int{4}, []int{-1}, cfg, KeepReserved{}},
		{"nil policy", []int{1}, []int{0}, cfg, nil},
		{"bad cfg", []int{1}, []int{0}, Config{Instance: testInstance(), SellingDiscount: 2}, KeepReserved{}},
	}
	for _, c := range badCases {
		t.Run(c.name, func(t *testing.T) {
			_, _, wantErr := runReference(c.demand, c.newRes, c.cfg, c.policy)
			_, gotErr := Run(c.demand, c.newRes, c.cfg, c.policy)
			if wantErr == nil || gotErr == nil {
				t.Fatalf("expected both engines to fail: got %v, reference %v", gotErr, wantErr)
			}
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text mismatch: got %q, reference %q", gotErr, wantErr)
			}
		})
	}
}
