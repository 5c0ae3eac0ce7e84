package simulate

import (
	"math/rand"
	"testing"
)

// checkPositions replays the inputs on s with schedules recorded and
// pins Positions to them: after a replay that sold nothing, every
// record's steps start at age 0, rise strictly below the period and
// reproduce its schedule hour for hour; after a replay that sold, every
// record is refused. It reports whether the replay sold nothing.
func checkPositions(t *testing.T, s *Scratch, demand, newRes []int, cfg Config, policy SellingPolicy) bool {
	t.Helper()
	cfg.RecordSchedules = true
	tot, err := s.Totals(demand, newRes, cfg, policy)
	if err != nil {
		t.Fatalf("Totals rejected valid input: %v", err)
	}
	period := cfg.Instance.PeriodHours
	var steps []PositionStep
	recs := s.Records()
	for i, rec := range recs {
		steps, err = s.Positions(steps, i)
		if tot.Sold > 0 {
			if err == nil {
				t.Fatalf("record %d: Positions described a replay that sold %d instances", i, tot.Sold)
			}
			continue
		}
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if len(steps) == 0 || steps[0].Age != 0 {
			t.Fatalf("record %d: steps %v do not start at age 0", i, steps)
		}
		for k := 1; k < len(steps); k++ {
			if steps[k].Age <= steps[k-1].Age || steps[k].Age >= period {
				t.Fatalf("record %d: step ages %v not increasing within [0, %d)", i, steps, period)
			}
		}
		k := 0
		for a, busy := range rec.Schedule {
			for k+1 < len(steps) && steps[k+1].Age <= a {
				k++
			}
			h := rec.Start + a
			if want := h < len(demand) && demand[h] > steps[k].Pos; busy != want {
				t.Fatalf("record %d (start %d, batch index %d) age %d: schedule %v, closed form %v (steps %v)",
					i, rec.Start, rec.BatchIndex, a, busy, want, steps)
			}
		}
	}
	if _, err := s.Positions(steps, len(recs)); err == nil {
		t.Fatalf("Positions described record %d of a replay with %d", len(recs), len(recs))
	}
	return tot.Sold == 0
}

// TestPositionsMatchSchedules runs the closed form over the engine's
// differential corpus on one reused Scratch: each case replayed under
// Keep-Reserved, then under its own policy, where a replay that sold
// must be refused.
func TestPositionsMatchSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(20180702)) // the differential corpus
	var s Scratch
	described, refused := 0, 0
	for i := 0; i < 250; i++ {
		c := sampleDiffCase(rng, i)
		if !checkPositions(t, &s, c.demand, c.newRes, c.cfg, KeepReserved{}) {
			t.Fatalf("%s: Keep-Reserved replay sold", c.name)
		}
		if checkPositions(t, &s, c.demand, c.newRes, c.cfg, c.policy) {
			described++
		} else {
			refused++
		}
	}
	if described == 0 || refused == 0 {
		t.Fatalf("own-policy replays: %d described, %d refused; the corpus should reach both", described, refused)
	}
}

// TestPositionsRefusals: Positions errors on a fresh Scratch, on a
// record index outside the last replay, and after a failed replay.
func TestPositionsRefusals(t *testing.T) {
	var s Scratch
	if _, err := s.Positions(nil, 0); err == nil {
		t.Error("fresh Scratch described record 0")
	}
	cfg := testConfig()
	demand := []int{3, 1, 2, 0, 4, 4, 1, 0}
	newRes := []int{2, 0, 1, 0, 0, 0, 0, 0}
	pts := make([]ResumePoint, 1)
	if _, err := s.Trunk(demand, newRes, cfg, []int{3}, pts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Positions(nil, 2); err != nil {
		t.Errorf("Keep-Reserved trunk: %v", err)
	}
	for _, i := range []int{-1, 3} {
		if _, err := s.Positions(nil, i); err == nil {
			t.Errorf("described record %d of 3", i)
		}
	}
	// A policy due at hour 2 cannot resume at hour 3: the failed
	// replay leaves nothing to describe.
	if _, err := s.Resume(&pts[0], cfg, diffFixed{age: 2, threshold: 1}); err == nil {
		t.Fatal("resume past a due checkpoint accepted")
	}
	if _, err := s.Positions(nil, 0); err == nil {
		t.Error("described a record of a failed replay")
	}
}

// FuzzPositions drives the closed form with arbitrary byte-derived
// demand and reservation series, periods and policies, on one Scratch
// reused across every input the fuzzer feeds this process: every
// Keep-Reserved replay, and every replay that sold nothing, must be
// described exactly, and every replay that sold refused. One shape bit
// widens the demand and reservation scales, as in FuzzEngineRun.
func FuzzPositions(f *testing.F) {
	f.Add([]byte{5, 3, 0, 7, 1}, []byte{1, 0, 2}, byte(4), byte(1), byte(10))
	f.Add([]byte{}, []byte{}, byte(1), byte(0), byte(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, []byte{2, 2, 2, 2}, byte(3), byte(2), byte(2))
	f.Add([]byte{63, 40, 2, 17, 30, 9, 55, 0, 0, 61, 12, 33, 47, 5, 28, 63}, []byte{7, 7, 0, 6, 7}, byte(9), byte(17), byte(6))
	f.Add([]byte{50, 1, 22, 39, 0, 8, 44, 63, 14, 27, 3, 60}, []byte{7, 5, 7, 7}, byte(7), byte(19), byte(3))

	var scratch Scratch
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
		if !checkPositions(t, &scratch, demand, newRes, cfg, KeepReserved{}) {
			t.Fatal("Keep-Reserved replay sold")
		}
		age := int(ageB)
		var policy SellingPolicy = diffFixed{age: age%(period+2) - 1, threshold: age % (period + 1)}
		if shapeB&1 != 0 {
			policy = diffPerInstance{seed: uint64(ageB)*0x9e3779b9 + uint64(periodB), threshold: age % (period + 1)}
		}
		checkPositions(t, &scratch, demand, newRes, cfg, policy)
	})
}
