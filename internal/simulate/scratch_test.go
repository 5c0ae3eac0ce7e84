package simulate

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rimarket/internal/pricing"
)

// This file pins Scratch.Totals and Scratch.Replay to Run. All three
// are the same replay kernel with different outputs, so over the
// seeded differential corpus the totals output must carry Run's exact
// cost bits, sale count and idle hours, and Replay's records must equal
// Run's instances, even when one Scratch is reused across cases of
// every size and policy shape. CI runs it under -race.

// totalsFromRun derives the Totals a full Result implies.
func totalsFromRun(res Result) Totals {
	tot := Totals{Cost: res.Cost, Sold: res.SoldCount()}
	for _, h := range res.Hours {
		served := h.Demand - h.OnDemand
		tot.IdleHours += h.ActiveRes - served
	}
	return tot
}

// assertTotalsIdentical compares totals bit for bit, so a change in
// float accumulation order fails even where == would round alike.
func assertTotalsIdentical(t *testing.T, got, want Totals) {
	t.Helper()
	bits := func(c CostBreakdown) [4]uint64 {
		return [4]uint64{
			math.Float64bits(c.OnDemand), math.Float64bits(c.Upfront),
			math.Float64bits(c.ReservedHourly), math.Float64bits(c.SaleIncome),
		}
	}
	if bits(got.Cost) != bits(want.Cost) {
		t.Fatalf("Cost differs:\n got %+v\nwant %+v", got.Cost, want.Cost)
	}
	if got.Sold != want.Sold || got.IdleHours != want.IdleHours {
		t.Fatalf("totals differ: got sold=%d idle=%d, want sold=%d idle=%d",
			got.Sold, got.IdleHours, want.Sold, want.IdleHours)
	}
}

// instancesOf is a case's reservation count, its scratch footprint.
func instancesOf(c diffCase) int {
	n := 0
	for _, r := range c.newRes {
		n += r
	}
	return n
}

// scratchCorpus is the 250-case differential corpus in the order the
// reuse tests replay it: large → small → large (descending over half
// the corpus, ascending over the other half), so every buffer of a
// reused Scratch is both outgrown and reused with stale contents
// beyond the live prefix, across per-instance, multi-checkpoint and
// shared-age policies.
func scratchCorpus(t *testing.T) []diffCase {
	t.Helper()
	const cases = 250
	rng := rand.New(rand.NewSource(20180702)) // the differential corpus
	corpus := make([]diffCase, cases)
	for i := range corpus {
		corpus[i] = sampleDiffCase(rng, i)
	}
	sort.SliceStable(corpus, func(i, j int) bool {
		return instancesOf(corpus[i])*len(corpus[i].demand) > instancesOf(corpus[j])*len(corpus[j].demand)
	})
	order := make([]diffCase, 0, cases)
	for i := 0; i < cases; i += 2 {
		order = append(order, corpus[i]) // large → small
	}
	for i := cases - 1 - cases%2; i > 0; i -= 2 {
		order = append(order, corpus[i]) // small → large
	}
	if len(order) != cases {
		t.Fatalf("ordering lost cases: %d of %d", len(order), cases)
	}
	return order
}

// dirtyScratch returns a Scratch dirtied by a large multi-checkpoint
// replay that sells everything and records every schedule.
func dirtyScratch(t *testing.T) *Scratch {
	t.Helper()
	var s Scratch
	dirty := diffCase{demand: make([]int, 400), newRes: make([]int, 400), cfg: testConfig(),
		policy: diffMulti{ages: []int{3, 9, 17, 25}, threshold: 1 << 20}}
	dirty.cfg.RecordSchedules = true
	for h := range dirty.demand {
		dirty.demand[h] = h % 11
		dirty.newRes[h] = h % 4
	}
	if _, _, err := s.Replay(dirty.demand, dirty.newRes, dirty.cfg, dirty.policy); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestScratchTotalsMatchRun runs the corpus through one dirty, reused
// Scratch and holds every Totals to the one Run implies.
func TestScratchTotalsMatchRun(t *testing.T) {
	s := dirtyScratch(t)
	for _, c := range scratchCorpus(t) {
		want, wantErr := Run(c.demand, c.newRes, c.cfg, c.policy)
		got, gotErr := s.Totals(c.demand, c.newRes, c.cfg, c.policy)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: error mismatch: totals %v, Run %v", c.name, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		t.Run(c.name, func(t *testing.T) { assertTotalsIdentical(t, got, totalsFromRun(want)) })
	}
}

// TestScratchReplayMatchesRun runs the corpus through one dirty,
// reused Scratch and holds every Replay to Run: the same totals, and
// records DeepEqual to Run's instances, busy schedules included for the
// half of the corpus that sets RecordSchedules.
func TestScratchReplayMatchesRun(t *testing.T) {
	s := dirtyScratch(t)
	for _, c := range scratchCorpus(t) {
		want, wantErr := Run(c.demand, c.newRes, c.cfg, c.policy)
		got, recs, gotErr := s.Replay(c.demand, c.newRes, c.cfg, c.policy)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: error mismatch: replay %v, Run %v", c.name, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			assertTotalsIdentical(t, got, totalsFromRun(want))
			if !reflect.DeepEqual(recs, want.Instances) {
				t.Fatalf("records differ from Run's instances:\n got %+v\nwant %+v", recs, want.Instances)
			}
		})
	}
}

// TestScratchTotalsErrors pins Totals and Replay to reject invalid
// input with Run's exact error text.
func TestScratchTotalsErrors(t *testing.T) {
	cfg := testConfig()
	var s Scratch
	for _, c := range []struct {
		name           string
		demand, newRes []int
		cfg            Config
		policy         SellingPolicy
	}{
		{"length", []int{1}, []int{0, 0}, cfg, KeepReserved{}},
		{"negative demand", []int{-4}, []int{0}, cfg, KeepReserved{}},
		{"negative res", []int{4}, []int{-1}, cfg, KeepReserved{}},
		{"nil policy", []int{1}, []int{0}, cfg, nil},
		{"bad cfg", []int{1}, []int{0}, Config{Instance: testInstance(), SellingDiscount: 2}, KeepReserved{}},
	} {
		_, wantErr := Run(c.demand, c.newRes, c.cfg, c.policy)
		_, gotErr := s.Totals(c.demand, c.newRes, c.cfg, c.policy)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: totals error %v, Run error %v", c.name, gotErr, wantErr)
		}
		_, recs, replayErr := s.Replay(c.demand, c.newRes, c.cfg, c.policy)
		if replayErr == nil || replayErr.Error() != wantErr.Error() || recs != nil {
			t.Errorf("%s: replay error %v with %d records, Run error %v", c.name, replayErr, len(recs), wantErr)
		}
	}
}

// allocCase is the one-year user the zero-allocation tests replay,
// with the policy shapes they cover: a shared-age policy that sells, a
// per-instance policy and the never-selling baseline.
func allocCase() (demand, newRes []int, cfg Config, policies []namedPolicy) {
	it := pricing.InstanceType{
		Name:           "alloc.card",
		OnDemandHourly: 0.69,
		Upfront:        1000,
		ReservedHourly: 0.097,
		PeriodHours:    pricing.HoursPerYear,
	}
	demand = make([]int, pricing.HoursPerYear)
	newRes = make([]int, pricing.HoursPerYear)
	for h := range demand {
		demand[h] = 5 + h%7
		if h%500 == 0 {
			newRes[h] = 3
		}
	}
	return demand, newRes, Config{Instance: it, SellingDiscount: 0.8}, []namedPolicy{
		{"shared-age", diffFixed{age: 3 * it.PeriodHours / 4, threshold: it.PeriodHours / 2}},
		{"per-instance", diffPerInstance{seed: 7, threshold: it.PeriodHours / 2}},
		{"keep-reserved", KeepReserved{}},
	}
}

type namedPolicy struct {
	name   string
	policy SellingPolicy
}

// TestScratchTotalsZeroAllocs pins the point of the scratch: once warm,
// a one-year totals or records replay allocates nothing, for every
// allocCase policy.
func TestScratchTotalsZeroAllocs(t *testing.T) {
	demand, newRes, cfg, policies := allocCase()
	for _, p := range policies {
		var s Scratch
		if _, _, err := s.Replay(demand, newRes, cfg, p.policy); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.Totals(demand, newRes, cfg, p.policy); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm totals replay made %v allocs, want 0", p.name, allocs)
		}
		allocs = testing.AllocsPerRun(20, func() {
			if _, _, err := s.Replay(demand, newRes, cfg, p.policy); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm records replay made %v allocs, want 0", p.name, allocs)
		}
	}
}

// TestScratchReplaySchedulesZeroAllocs extends the zero-allocation pin
// to records that carry busy schedules: once warm, a one-year Replay
// with RecordSchedules set reuses the Scratch's schedule buffer.
func TestScratchReplaySchedulesZeroAllocs(t *testing.T) {
	demand, newRes, cfg, policies := allocCase()
	cfg.RecordSchedules = true
	for _, p := range policies {
		var s Scratch
		if _, _, err := s.Replay(demand, newRes, cfg, p.policy); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := s.Replay(demand, newRes, cfg, p.policy); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm replay with schedules made %v allocs, want 0", p.name, allocs)
		}
	}
}

// firstReservation is the hour of newRes's first reservation, or -1.
func firstReservation(newRes []int) int {
	for t, n := range newRes {
		if n > 0 {
			return t
		}
	}
	return -1
}

// forkOf is the case's ForkHour, resolved as a grid resolves it.
func forkOf(c diffCase) int {
	return ForkHour(ForkAge(c.policy, c.cfg.Instance.PeriodHours), firstReservation(c.newRes), len(c.demand))
}

// TestScratchResumeMatchesTotals holds the trunk/resume split to the
// plain replay: over the corpus, on one dirty reused Scratch and three
// reused resume points, a Keep-Reserved trunk's totals equal
// Totals(KeepReserved), and resuming at hours 0, fork/2 and fork
// equals Totals under the case's policy bit for bit. Where the fork is
// a shared-age checkpoint hour, resuming one hour later is rejected,
// so ForkHour is as late as a resume can go.
func TestScratchResumeMatchesTotals(t *testing.T) {
	s := dirtyScratch(t)
	pts := make([]ResumePoint, 3)
	resumed := 0
	for _, c := range scratchCorpus(t) {
		want, err := Run(c.demand, c.newRes, c.cfg, c.policy)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		keep, err := Run(c.demand, c.newRes, c.cfg, KeepReserved{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fork := forkOf(c)
		hours := []int{0, fork / 2, fork}
		t.Run(c.name, func(t *testing.T) {
			trunk, err := s.Trunk(c.demand, c.newRes, c.cfg, hours, pts)
			if err != nil {
				t.Fatal(err)
			}
			assertTotalsIdentical(t, trunk, totalsFromRun(keep))
			for i := range pts {
				if pts[i].hour != hours[i] {
					t.Fatalf("point %d at hour %d, want %d", i, pts[i].hour, hours[i])
				}
				got, err := s.Resume(&pts[i], c.cfg, c.policy)
				if err != nil {
					t.Fatalf("resume at hour %d (fork %d): %v", hours[i], fork, err)
				}
				assertTotalsIdentical(t, got, totalsFromRun(want))
				resumed++
			}
			_, isPerInstance := c.policy.(PerInstancePolicy)
			if isPerInstance || fork >= len(c.demand) {
				return
			}
			late := []ResumePoint{{}}
			if _, err := s.Trunk(c.demand, c.newRes, c.cfg, []int{fork + 1}, late); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Resume(&late[0], c.cfg, c.policy); err == nil {
				t.Fatalf("resume at hour %d, one past the fork, was accepted", fork+1)
			}
		})
	}
	if resumed < 750 {
		t.Fatalf("only %d resumes checked, want the whole corpus at three hours", resumed)
	}
}

// TestScratchResumeErrors pins the resume step's validation: it checks
// cfg and policy as Totals does, refuses a point never captured or one
// captured under another price card, and Trunk refuses capture hours
// out of order or past the horizon.
func TestScratchResumeErrors(t *testing.T) {
	var s Scratch
	cfg := testConfig()
	demand, newRes := []int{3, 1, 4, 1, 5}, []int{2, 0, 1, 0, 0}
	pts := make([]ResumePoint, 1)
	if _, err := s.Trunk(demand, newRes, cfg, []int{0}, pts); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Instance.Name = "other.card"
	bad := cfg
	bad.SellingDiscount = 2
	for _, c := range []struct {
		name   string
		pt     *ResumePoint
		cfg    Config
		policy SellingPolicy
	}{
		{"bad cfg", &pts[0], bad, KeepReserved{}},
		{"nil policy", &pts[0], cfg, nil},
		{"never captured", &ResumePoint{}, cfg, KeepReserved{}},
		{"other card", &pts[0], other, KeepReserved{}},
	} {
		if _, err := s.Resume(c.pt, c.cfg, c.policy); err == nil {
			t.Errorf("%s: resume accepted", c.name)
		}
	}
	for _, hours := range [][]int{{3, 2}, {-1}, {6}} {
		if _, err := s.Trunk(demand, newRes, cfg, hours, make([]ResumePoint, len(hours))); err == nil {
			t.Errorf("capture hours %v accepted", hours)
		}
	}
	if _, err := s.Trunk(demand, newRes, cfg, []int{1}, nil); err == nil {
		t.Error("more capture hours than points accepted")
	}
	if _, err := s.Trunk([]int{-1}, []int{0}, cfg, nil, nil); err == nil {
		t.Error("trunk accepted negative demand")
	}
}

// TestScratchResumeZeroAllocs pins the trunk/resume path at zero
// allocations once warm: a one-year trunk capturing into reused points
// carved by NewResumePoints, and a resume from each point, for every
// allocCase policy.
func TestScratchResumeZeroAllocs(t *testing.T) {
	demand, newRes, cfg, policies := allocCase()
	reserved := 0
	for _, n := range newRes {
		reserved += n
	}
	first := firstReservation(newRes)
	for _, p := range policies {
		fork := ForkHour(ForkAge(p.policy, cfg.Instance.PeriodHours), first, len(demand))
		hours := []int{0, fork / 2, fork}
		pts := NewResumePoints([]int{reserved, reserved, reserved})
		var s Scratch
		if _, err := s.Trunk(demand, newRes, cfg, hours, pts); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Resume(&pts[0], cfg, p.policy); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.Trunk(demand, newRes, cfg, hours, pts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm trunk capture made %v allocs, want 0", p.name, allocs)
		}
		for i := range pts {
			allocs = testing.AllocsPerRun(20, func() {
				if _, err := s.Resume(&pts[i], cfg, p.policy); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: warm resume at hour %d made %v allocs, want 0", p.name, hours[i], allocs)
			}
		}
	}
}
