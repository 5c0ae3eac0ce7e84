package simulate

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rimarket/internal/obs"
	"rimarket/internal/pricing"
)

// This file pins cohort replays to per-user Run. The experiment
// drivers evaluate a cohort by giving each pool worker one Scratch and
// replaying the users it claims on it back to back, so every buffer is
// outgrown, reused and left dirty between users of different sizes.
// Over 250 seeded cohorts covering every policy shape, sizes from empty
// to dozens of users and ragged per-user horizons, each user's Totals
// must carry Run's exact cost bits, sale count and idle hours at every
// worker count. The Batch test names date from when these cohorts
// pinned the since-deleted struct-of-arrays batch engine to Run; the
// properties they check are the ones the surviving Scratch path must
// keep. CI runs this file under -race, which also proves that worker
// Scratches share no state.

// cohortUser is one user's demand and reservation series.
type cohortUser struct {
	demand, newRes []int
}

// batchCase is one sampled cohort with its shared config and policy.
type batchCase struct {
	name   string
	users  []cohortUser
	cfg    Config
	policy SellingPolicy
}

// sampleBatchCase draws a cohort case from rng: the pricing card,
// marketplace parameters and policy shapes are drawn exactly like the
// per-user differential's sampleDiffCase, then a cohort of varied size
// is drawn with per-user horizons deliberately ragged.
func sampleBatchCase(rng *rand.Rand, i int) batchCase {
	period := 8 + rng.Intn(53)
	card := pricing.InstanceType{
		Name:           "batch.case",
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

	size := [...]int{0, 1, 2, 3, 5, 8, 13, 21, 34}[rng.Intn(9)]
	users := make([]cohortUser, size)
	for u := range users {
		horizon := rng.Intn(161) // 0..160, ragged across the cohort
		demand := make([]int, horizon)
		newRes := make([]int, horizon)
		for t := range demand {
			demand[t] = rng.Intn(9)
			if rng.Intn(3) == 0 {
				newRes[t] = rng.Intn(4)
			}
		}
		users[u] = cohortUser{demand: demand, newRes: newRes}
	}
	return batchCase{
		name:   fmt.Sprintf("case%03d/%s/users=%d/period=%d", i, shape, size, period),
		users:  users,
		cfg:    cfg,
		policy: policy,
	}
}

// cohortTotals replays a cohort the way the experiment drivers' pool
// does: par workers (0 means GOMAXPROCS) claim users from one shared
// cursor and replay each on the worker's own Scratch, so which users
// share a scratch depends on timing. Every user is replayed; the lowest
// failing user's error wins.
func cohortTotals(users []cohortUser, cfg Config, policy SellingPolicy, par int) ([]Totals, error) {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(users) {
		par = len(users)
	}
	out := make([]Totals, len(users))
	errs := make([]error, len(users))
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s Scratch
			for i := int(next.Add(1) - 1); i < len(users); i = int(next.Add(1) - 1) {
				out[i], errs[i] = s.Totals(users[i].demand, users[i].newRes, cfg, policy)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("user %d: %w", i, err)
		}
	}
	return out, nil
}

// TestDifferentialBatchEquivalence is the cohort path's safety net:
// 250 seeded cohorts, every policy shape, and at parallelism 1, 3 and
// GOMAXPROCS every user's Totals equal the totals its full per-user
// Run implies, bit for bit. At parallelism 1 one Scratch carries the
// whole ragged cohort.
func TestDifferentialBatchEquivalence(t *testing.T) {
	const cases = 250
	rng := rand.New(rand.NewSource(20180708)) // same vintage, fresh stream
	parallelisms := []int{1, 3, 0}            // 0 = GOMAXPROCS
	for i := 0; i < cases; i++ {
		c := sampleBatchCase(rng, i)
		t.Run(c.name, func(t *testing.T) {
			want := make([]Totals, len(c.users))
			for u := range c.users {
				res, err := Run(c.users[u].demand, c.users[u].newRes, c.cfg, c.policy)
				if err != nil {
					t.Fatalf("per-user engine rejected sampled input: %v", err)
				}
				want[u] = totalsFromRun(t, c.users[u].demand, c.users[u].newRes, c.cfg, res)
			}
			for _, par := range parallelisms {
				got, err := cohortTotals(c.users, c.cfg, c.policy, par)
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				if len(got) != len(want) {
					t.Fatalf("par=%d: %d totals for %d users", par, len(got), len(want))
				}
				for u := range want {
					assertTotalsIdentical(t, got[u], want[u])
				}
			}
		})
	}
}

// TestBatchTotalsParallelismInvariance replays one larger cohort at
// every parallelism from 1 to GOMAXPROCS+2 and requires bit-identical
// outputs: which Scratch replays which user must be unobservable.
func TestBatchTotalsParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	users := make([]cohortUser, 57)
	for u := range users {
		horizon := 40 + rng.Intn(100)
		demand := make([]int, horizon)
		newRes := make([]int, horizon)
		for h := range demand {
			demand[h] = rng.Intn(7)
			if rng.Intn(4) == 0 {
				newRes[h] = rng.Intn(3)
			}
		}
		users[u] = cohortUser{demand: demand, newRes: newRes}
	}
	cfg := testConfig()
	policy := diffFixed{age: cfg.Instance.PeriodHours / 2, threshold: cfg.Instance.PeriodHours / 4}

	base, err := cohortTotals(users, cfg, policy, 1)
	if err != nil {
		t.Fatal(err)
	}
	for par := 2; par <= runtime.GOMAXPROCS(0)+2; par++ {
		got, err := cohortTotals(users, cfg, policy, par)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("par=%d: totals differ from sequential run", par)
		}
	}
}

// TestBatchValidationParity: a rejected user in the middle of a
// cohort fails with Run's exact error text and leaves the worker's
// Scratch clean, so the users after it still replay bit-identically
// to Run.
func TestBatchValidationParity(t *testing.T) {
	cfg := testConfig()
	good := []cohortUser{
		{demand: []int{1, 2, 0, 3, 5, 1}, newRes: []int{1, 0, 2, 0, 1, 0}},
		{demand: []int{4, 4, 4}, newRes: []int{3, 0, 0}},
	}
	cases := []struct {
		name   string
		bad    cohortUser
		cfg    Config
		policy SellingPolicy
	}{
		{"length mismatch", cohortUser{demand: []int{1}, newRes: []int{0, 0}}, cfg, KeepReserved{}},
		{"negative demand", cohortUser{demand: []int{-4}, newRes: []int{0}}, cfg, KeepReserved{}},
		{"negative res", cohortUser{demand: []int{4}, newRes: []int{-1}}, cfg, KeepReserved{}},
		{"bad cfg", good[0], Config{Instance: testInstance(), SellingDiscount: 2}, KeepReserved{}},
		{"nil policy", good[0], cfg, nil},
	}
	policy := diffFixed{age: 2, threshold: 3}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, wantErr := Run(c.bad.demand, c.bad.newRes, c.cfg, c.policy)
			if wantErr == nil {
				t.Fatal("per-user engine accepted the bad input")
			}
			var s Scratch
			if _, err := s.Totals(good[0].demand, good[0].newRes, cfg, policy); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Totals(c.bad.demand, c.bad.newRes, c.cfg, c.policy); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("totals error %v, Run says %v", err, wantErr)
			}
			for u, user := range good {
				got, err := s.Totals(user.demand, user.newRes, cfg, policy)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(user.demand, user.newRes, cfg, policy)
				if err != nil {
					t.Fatal(err)
				}
				if want := totalsFromRun(t, user.demand, user.newRes, cfg, res); got != want {
					t.Fatalf("user %d after the rejected one: totals %+v, Run implies %+v", u, got, want)
				}
			}
		})
	}

	t.Run("empty cohort", func(t *testing.T) {
		// A cohort member with no hours replays to zero totals, as Run
		// does, and so does a cohort of no members.
		var s Scratch
		got, err := s.Totals(nil, nil, cfg, policy)
		if err != nil || got != (Totals{}) {
			t.Fatalf("empty series: totals %+v, err %v", got, err)
		}
		tot, err := cohortTotals(nil, cfg, policy, 0)
		if err != nil || len(tot) != 0 {
			t.Fatalf("empty cohort: %d totals, err %v", len(tot), err)
		}
	})
}

// TestBatchAliasedUsers: the million-user cohorts alias one backing
// trace across many users, so a replay must never write its inputs.
// Aliased and copied cohorts must produce identical outputs, and the
// shared series must come back untouched.
func TestBatchAliasedUsers(t *testing.T) {
	demand := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}
	newRes := []int{2, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0}
	cfg := testConfig()
	policy := diffFixed{age: cfg.Instance.PeriodHours / 3, threshold: cfg.Instance.PeriodHours}

	aliased := make([]cohortUser, 40)
	copied := make([]cohortUser, 40)
	for u := range aliased {
		aliased[u] = cohortUser{demand: demand, newRes: newRes}
		copied[u] = cohortUser{
			demand: append([]int(nil), demand...),
			newRes: append([]int(nil), newRes...),
		}
	}
	a, err := cohortTotals(aliased, cfg, policy, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cohortTotals(copied, cfg, policy, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("aliased cohort totals differ from copied cohort totals")
	}
	// And the inputs must be untouched.
	if !reflect.DeepEqual(demand, []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}) ||
		!reflect.DeepEqual(newRes, []int{2, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0}) {
		t.Fatal("a cohort replay mutated a shared input series")
	}
}

// TestBatchMetricsParity: a cohort replayed through one Scratch books
// the same per-run engine counters as a loop over Run, so the
// manifest's engine figures mean the same thing whichever path a
// driver takes.
func TestBatchMetricsParity(t *testing.T) {
	users := []cohortUser{
		{demand: []int{1, 2, 3, 4}, newRes: []int{1, 0, 1, 0}},
		{demand: []int{5, 5}, newRes: []int{2, 0}},
	}
	cfg := testConfig()
	policy := diffFixed{age: 1, threshold: 10}
	var perUser, cohort obs.EngineMetrics
	var s Scratch
	for _, u := range users {
		c := cfg
		c.Metrics = &perUser
		if _, err := Run(u.demand, u.newRes, c, policy); err != nil {
			t.Fatal(err)
		}
		c.Metrics = &cohort
		if _, err := s.Totals(u.demand, u.newRes, c, policy); err != nil {
			t.Fatal(err)
		}
	}
	if g, w := cohort.Runs.Value(), perUser.Runs.Value(); g != w || g != int64(len(users)) {
		t.Fatalf("cohort Runs = %d, per-user %d, want %d", g, w, len(users))
	}
	if g, w := cohort.Hours.Value(), perUser.Hours.Value(); g != w {
		t.Fatalf("cohort Hours = %d, per-user %d", g, w)
	}
	if g, w := cohort.Instances.Value(), perUser.Instances.Value(); g != w {
		t.Fatalf("cohort Instances = %d, per-user %d", g, w)
	}
	if g, w := cohort.Sold.Value(), perUser.Sold.Value(); g != w {
		t.Fatalf("cohort Sold = %d, per-user %d", g, w)
	}
}
