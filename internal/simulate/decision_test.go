package simulate

import (
	"math/rand"
	"testing"
)

// batchAges is a PerInstancePolicy whose instances take their age from
// their batch index: ages[b-1] for batch index b, 0 (never offered)
// beyond the list.
type batchAges struct{ ages []int }

func (p batchAges) CheckpointAge(period int) int { return period / 2 }
func (p batchAges) ShouldSell(Checkpoint) bool   { return true }
func (p batchAges) InstanceCheckpointAge(_, batchIndex, _ int) int {
	if batchIndex <= len(p.ages) {
		return p.ages[batchIndex-1]
	}
	return 0
}

// TestLastDecisionHour pins the cut to the engine's checkpoint rule:
// ages outside (0, period) never decide, a checkpoint decides only
// before the horizon, a multi-checkpoint instance's latest in-horizon
// age counts, and a per-instance policy's ages are its instances' own.
func TestLastDecisionHour(t *testing.T) {
	const period = 10
	// res returns an n-hour reservation series with the given
	// hour: count pairs.
	res := func(n int, batches map[int]int) []int {
		out := make([]int, n)
		for h, c := range batches {
			out[h] = c
		}
		return out
	}
	for _, c := range []struct {
		name    string
		newRes  []int
		policy  SellingPolicy
		horizon int
		want    int
	}{
		{"no reservations", res(20, nil), diffFixed{age: 5}, 20, -1},
		{"keep-reserved", res(20, map[int]int{0: 3, 9: 1}), KeepReserved{}, 20, -1},
		{"nil policy", res(20, map[int]int{0: 3}), nil, 20, -1},
		{"checkpoint at horizon-1", res(20, map[int]int{3: 2, 14: 1}), diffFixed{age: 5}, 20, 19},
		{"checkpoint at horizon excluded", res(20, map[int]int{3: 2, 15: 1}), diffFixed{age: 5}, 20, 8},
		{"only checkpoint at horizon", res(20, map[int]int{15: 1}), diffFixed{age: 5}, 20, -1},
		{"age of the period", res(20, map[int]int{0: 1}), diffFixed{age: period}, 20, -1},
		{"age beyond the period", res(20, map[int]int{0: 1}), diffFixed{age: period + 3}, 20, -1},
		{"age zero", res(20, map[int]int{4: 1}), diffFixed{age: 0}, 20, -1},
		{"age period-1", res(20, map[int]int{4: 1}), diffFixed{age: period - 1}, 20, 13},
		{"reservation past the horizon", res(30, map[int]int{2: 1, 25: 4}), diffFixed{age: 5}, 20, 7},
		{"series shorter than the horizon", res(10, map[int]int{8: 1}), diffFixed{age: 9}, 20, 17},
		// Ages 3 and 7 (the rest are dropped): hour 14 decides at 17
		// only, and hour 10's later age 17 ties it; hour 16 decides at 19.
		{"multi latest in-horizon age", res(20, map[int]int{10: 1, 14: 1}), diffMulti{ages: []int{7, 3, 7, -1, period, 15}}, 20, 17},
		{"multi at horizon-1", res(20, map[int]int{5: 1, 16: 1}), diffMulti{ages: []int{3, 7}}, 20, 19},
		// A late reservation's short age must not end the walk before
		// an earlier reservation's long age.
		{"multi earlier reservation later", res(20, map[int]int{10: 1, 15: 1}), diffMulti{ages: []int{2, 9}}, 20, 19},
		{"multi no valid age", res(20, map[int]int{0: 2}), diffMulti{ages: []int{0, -2, period}}, 20, -1},
		// Batch index 1 decides at age 2, 2 at age 9, 3 never (age 0)
		// and 4 never (age 10, not below the period).
		{"per-instance own ages", res(20, map[int]int{3: 4, 12: 1}), batchAges{ages: []int{2, 9, 0, period}}, 20, 14},
		{"per-instance latest batch index", res(20, map[int]int{10: 4}), batchAges{ages: []int{2, 9, 0, period}}, 20, 19},
		{"per-instance past horizon", res(20, map[int]int{12: 2}), batchAges{ages: []int{2, 9}}, 20, 14},
		{"per-instance never", res(20, map[int]int{1: 3}), batchAges{ages: []int{-1, 0, period}}, 20, -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := LastDecisionHour(c.newRes, c.policy, period, c.horizon); got != c.want {
				t.Errorf("LastDecisionHour = %d, want %d", got, c.want)
			}
		})
	}
	// A shared-age policy resolves its ages without allocating, so
	// the cut costs a session's replays nothing on the heap.
	newRes := res(20, map[int]int{3: 2, 14: 1})
	var policy SellingPolicy = diffFixed{age: 5}
	if n := testing.AllocsPerRun(100, func() { LastDecisionHour(newRes, policy, period, 20) }); n != 0 {
		t.Errorf("LastDecisionHour under a single-age policy made %v allocations, want 0", n)
	}
}

// checkDecisionPrefix replays the inputs whole and cut after their last
// decision hour, and requires the cut replay to decide as the whole
// one: every instance reserved inside the cut has the whole replay's
// SoldAt and WorkedAtCheckpoint, and no instance reserved after it is
// consulted. The cut must also be tight: the whole replay's latest
// consultation is at the cut's last hour, unless the instance due
// there was sold at an earlier age. It returns the last decision hour
// and the instances the whole replay sold.
func checkDecisionPrefix(t *testing.T, demand, newRes []int, cfg Config, policy SellingPolicy) (int, int) {
	t.Helper()
	period, horizon := cfg.Instance.PeriodHours, len(demand)
	full, err := Run(demand, newRes, cfg, policy)
	if err != nil {
		t.Fatalf("Run rejected valid input: %v", err)
	}
	last := LastDecisionHour(newRes, policy, period, horizon)
	if last < -1 || last >= horizon {
		t.Fatalf("last decision hour %d outside [-1, %d)", last, horizon)
	}
	cut, err := Run(demand[:last+1], newRes[:last+1], cfg, policy)
	if err != nil {
		t.Fatalf("cut replay: %v", err)
	}
	inside, consulted, soldEarly := 0, -1, false
	for i, rec := range full.Instances {
		if rec.WorkedAtCheckpoint >= 0 {
			h := latestBefore(DecisionAges(policy, rec.Start, rec.BatchIndex, period), rec.Start, horizon)
			if rec.SoldAt >= 0 {
				soldEarly = soldEarly || rec.SoldAt < h
				h = rec.SoldAt
			}
			consulted = max(consulted, h)
		}
		if rec.Start > last {
			if rec.SoldAt >= 0 || rec.WorkedAtCheckpoint >= 0 {
				t.Fatalf("instance %d, reserved at %d after the last decision hour %d, was consulted: %+v", i, rec.Start, last, rec)
			}
			continue
		}
		inside++
		if i >= len(cut.Instances) {
			t.Fatalf("cut replay at hour %d holds %d instances, whole replay's instance %d starts at %d", last, len(cut.Instances), i, rec.Start)
		}
		got := cut.Instances[i]
		if got.Start != rec.Start || got.BatchIndex != rec.BatchIndex || got.SoldAt != rec.SoldAt || got.WorkedAtCheckpoint != rec.WorkedAtCheckpoint {
			t.Fatalf("instance %d cut at hour %d: %+v, whole replay %+v", i, last, got, rec)
		}
	}
	if len(cut.Instances) != inside {
		t.Fatalf("cut replay at hour %d holds %d instances, want %d", last, len(cut.Instances), inside)
	}
	if consulted > last || (!soldEarly && consulted != last) {
		t.Fatalf("whole replay's latest consultation at hour %d, last decision hour %d", consulted, last)
	}
	return last, full.SoldCount()
}

// TestDecisionPrefix holds the causal cut over the engine's
// differential corpus, every policy shape included: fixed thresholds,
// multi-checkpoint and per-instance ages, and Keep-Reserved.
func TestDecisionPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(20180702)) // the differential corpus
	short := 0
	for i := 0; i < 250; i++ {
		c := sampleDiffCase(rng, i)
		t.Run(c.name, func(t *testing.T) {
			last, sold := checkDecisionPrefix(t, c.demand, c.newRes, c.cfg, c.policy)
			if sold > 0 && last+1 < len(c.demand) {
				short++
			}
		})
	}
	if short == 0 {
		t.Fatal("no case both sold and cut hours off its horizon; the corpus should reach one")
	}
}

// FuzzDecisionPrefix drives the causal cut with arbitrary byte-derived
// demand and reservation series, periods and policy shapes (fixed
// threshold, multi-checkpoint, per-instance, Keep-Reserved). One shape
// bit widens the demand and reservation scales, as in FuzzEngineRun.
// Seed corpus lives in testdata/fuzz/FuzzDecisionPrefix.
func FuzzDecisionPrefix(f *testing.F) {
	f.Add([]byte{5, 3, 0, 7, 1, 2, 8, 4}, []byte{1, 0, 2}, byte(4), byte(0), byte(3))
	f.Add([]byte{}, []byte{}, byte(1), byte(0), byte(0))
	f.Add([]byte{9, 1, 9, 1, 9, 1, 9, 1, 9, 1}, []byte{2, 1, 2, 1, 2}, byte(5), byte(1), byte(4))
	f.Add([]byte{63, 40, 2, 17, 30, 9, 55, 0, 0, 61, 12, 33, 47, 5, 28, 63}, []byte{7, 7, 0, 6, 7}, byte(9), byte(18), byte(6))

	f.Fuzz(func(t *testing.T, demandB, resB []byte, periodB, shapeB, ageB byte) {
		n := min(len(demandB), 300)
		demandScale, resScale := byte(10), byte(3)
		if shapeB&16 != 0 {
			demandScale, resScale = 64, 8
		}
		demand := make([]int, n)
		newRes := make([]int, n)
		for i := range n {
			demand[i] = int(demandB[i] % demandScale)
			if i < len(resB) {
				newRes[i] = int(resB[i] % resScale)
			}
		}
		cfg := testConfig()
		cfg.Instance.PeriodHours = 1 + int(periodB%96)
		period := cfg.Instance.PeriodHours
		age := int(ageB)
		var policy SellingPolicy
		switch shapeB % 4 {
		case 0:
			policy = diffFixed{age: age%(period+2) - 1, threshold: age % (period + 1)}
		case 1:
			policy = diffMulti{
				ages:      []int{age%period - 1, age % period, age % period, (2 * age) % (period + 3)},
				threshold: age % (period + 1),
			}
		case 2:
			policy = diffPerInstance{seed: uint64(ageB)*0x9e3779b9 + uint64(periodB), threshold: age % (period + 1)}
		default:
			policy = KeepReserved{}
		}
		checkDecisionPrefix(t, demand, newRes, cfg, policy)
	})
}
