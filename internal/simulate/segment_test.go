package simulate

import "testing"

// TestReplaySegmentEvents pins the event-segment kernel to the
// reference engine where a segment boundary meets a second event: a
// checkpoint on another instance's expiry hour, an activation on a
// capture hour, a sale spliced out of the middle of a wide window, a
// resume from an hour inside a segment, and hours with an empty
// window. Every case replays with schedules off and on, through Run,
// Totals on a reused Scratch, and a Keep-Reserved trunk resumed at each
// capture hour; check confirms the case still builds the event it
// names.
func TestReplaySegmentEvents(t *testing.T) {
	card := testInstance() // T = 40
	wave := func(n int, f func(int) int) []int {
		s := make([]int, n)
		for h := range s {
			s[h] = f(h)
		}
		return s
	}
	at := func(n int, hours map[int]int) []int {
		s := make([]int, n)
		for h, k := range hours {
			s[h] = k
		}
		return s
	}
	cases := []struct {
		name     string
		demand   []int
		newRes   []int
		policy   SellingPolicy
		captures []int
		check    func(t *testing.T, res Result, rows []HourRecord)
	}{{
		// Instance 1 expires at 40, the hour instance 2 (reserved at 10)
		// reaches its age-30 checkpoint.
		name:     "checkpoint on an expiry hour",
		demand:   wave(60, func(h int) int { return 1 + h%3 }),
		newRes:   at(60, map[int]int{0: 1, 10: 1}),
		policy:   diffFixed{age: 30, threshold: 25},
		captures: []int{0, 10, 30},
		check: func(t *testing.T, res Result, _ []HourRecord) {
			a, b := res.Instances[0], res.Instances[1]
			if a.Start+card.PeriodHours != 40 || b.WorkedAtCheckpoint < 0 || b.Start+30 != 40 {
				t.Errorf("instances %+v, %+v: checkpoint not on the expiry hour", a, b)
			}
		},
	}, {
		// The trunk captures on two batch hours; the resumes activate
		// the captured hour's batch first.
		name:     "activation on a capture hour",
		demand:   wave(70, func(h int) int { return (h * 5) % 9 }),
		newRes:   at(70, map[int]int{0: 2, 7: 3, 15: 1}),
		policy:   diffFixed{age: 20, threshold: 12},
		captures: []int{7, 15, 20},
		check: func(t *testing.T, res Result, _ []HourRecord) {
			if res.SoldCount() == 0 {
				t.Error("nothing sold: the resumes never leave the trunk")
			}
		},
	}, {
		// Three batches of ten; at hour 5 the first batch's tail
		// positions sell while the second batch works behind them, so
		// the splice closes a gap inside a window of twenty.
		name:     "sale splice inside a wide window",
		demand:   wave(60, func(h int) int { return 5 + (7*h)%25 }),
		newRes:   at(60, map[int]int{0: 10, 3: 10, 6: 10}),
		policy:   diffFixed{age: 5, threshold: 4},
		captures: []int{0, 3, 5},
		check: func(t *testing.T, res Result, _ []HourRecord) {
			sold := 0
			for _, in := range res.Instances[:10] {
				if in.SoldAt == 5 {
					sold++
				}
			}
			if sold == 0 || sold == 10 {
				t.Errorf("first batch sold %d of 10 at hour 5, want a partial sale", sold)
			}
		},
	}, {
		// Hour 13 is no event hour: the trunk's segment [0, 30) runs
		// through it, and the resume starts a segment there.
		name:     "resume mid-segment",
		demand:   wave(60, func(h int) int { return 2 + (h*3)%7 }),
		newRes:   at(60, map[int]int{0: 5}),
		policy:   diffFixed{age: 30, threshold: 20},
		captures: []int{13, 29, 30},
	}, {
		// Demand arrives before the first reservation and outlives
		// every instance, so some hours serve on an empty window.
		name:     "zero-window hours",
		demand:   wave(120, func(h int) int { return 1 + h%4 }),
		newRes:   at(120, map[int]int{5: 2, 30: 1}),
		policy:   diffFixed{age: 4, threshold: 3},
		captures: []int{0, 5, 9},
		check: func(t *testing.T, _ Result, rows []HourRecord) {
			empty := 0
			for _, r := range rows {
				if r.ActiveRes == 0 && r.Demand > 0 {
					empty++
				}
			}
			if empty == 0 {
				t.Error("no hour serves demand on an empty window")
			}
		},
	}}

	var s Scratch
	for _, c := range cases {
		for _, sched := range []bool{false, true} {
			cfg := testConfig()
			cfg.RecordSchedules = sched
			dc := diffCase{name: c.name, demand: c.demand, newRes: c.newRes, cfg: cfg, policy: c.policy}
			name := c.name + "/sched=off"
			if sched {
				name = c.name + "/sched=on"
			}
			t.Run(name, func(t *testing.T) {
				want, wantRows, err := runReference(c.demand, c.newRes, cfg, c.policy)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(c.demand, c.newRes, cfg, c.policy)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsIdentical(t, dc, got, want, wantRows)
				if c.check != nil {
					c.check(t, got, wantRows)
				}

				tot, err := s.Totals(c.demand, c.newRes, cfg, c.policy)
				if err != nil {
					t.Fatal(err)
				}
				assertTotalsIdentical(t, tot, totalsFromRun(t, c.demand, c.newRes, cfg, got))

				if fork := forkOf(dc); c.captures[len(c.captures)-1] > fork {
					t.Fatalf("capture hours %v pass the fork hour %d", c.captures, fork)
				}
				pts := make([]ResumePoint, len(c.captures))
				if _, err := s.Trunk(c.demand, c.newRes, cfg, c.captures, pts); err != nil {
					t.Fatal(err)
				}
				for i := range pts {
					resumed, err := s.Resume(&pts[i], cfg, c.policy)
					if err != nil {
						t.Fatalf("resume at hour %d: %v", c.captures[i], err)
					}
					assertTotalsIdentical(t, resumed, tot)
				}
			})
		}
	}
}
