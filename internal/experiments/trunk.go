package experiments

import (
	"context"
	"fmt"
	"slices"

	"rimarket/internal/obs"
	"rimarket/internal/pricing"
	"rimarket/internal/simulate"
)

// gridTrunks is one grid's Keep-Reserved trunks: for every price card
// of the pending cells, each user's baseline and one resume point per
// distinct fork age of the card's cells. Points live in one slab per
// card, user-major: user u's point for age index a is
// points[card][u*len(ages[card])+a].
type gridTrunks struct {
	keeps  [][]KeepStat
	ages   [][]int
	points [][]simulate.ResumePoint
	cardOf []int // per cell: index of its card
	ageOf  []int // per cell: index of its fork age within the card's
}

// point returns the resume point and Keep-Reserved total cell ci's run
// for user ui continues from and normalizes against.
func (g *gridTrunks) point(ci, ui int) (*simulate.ResumePoint, float64) {
	c := g.cardOf[ci]
	return &g.points[c][ui*len(g.ages[c])+g.ageOf[ci]], g.keeps[c][ui].Total
}

// forkAgeOrder sorts fork ages ascending with "never forks" (-1) last,
// so every user's capture hours come out non-decreasing.
func forkAgeOrder(a, b int) int {
	if a < 0 || b < 0 {
		return b - a // -1 after any age; equal when both are -1
	}
	return a - b
}

// runGridTrunks resolves each pending cell's card and fork age — once per
// cell, not per user — and runs the grid's trunks on its per-worker
// scratch. A trunk replays under a neutral config carrying only the
// card (and the metrics hook): Keep-Reserved never sells, so the
// cells' discounts and fees cannot change it, and each cell's own
// config is validated when its runs resume.
func (p *CohortPlan) runGridTrunks(ctx context.Context, cells []Cell, engs []simulate.Config, pending []int, scratch []simulate.Scratch) (*gridTrunks, error) {
	g := &gridTrunks{cardOf: make([]int, len(cells)), ageOf: make([]int, len(cells))}
	if len(pending) == 0 {
		return g, nil
	}
	var cards []pricing.InstanceType
	var cfgs []simulate.Config
	forkAge := make([]int, len(cells))
	for _, ci := range pending {
		card := cells[ci].Engine.Instance
		c := slices.Index(cards, card)
		if c < 0 {
			c = len(cards)
			cards = append(cards, card)
			cfgs = append(cfgs, simulate.Config{Instance: card, Metrics: engs[ci].Metrics})
			g.ages = append(g.ages, nil)
		}
		a := simulate.ForkAge(cells[ci].Policy, card.PeriodHours)
		if !slices.Contains(g.ages[c], a) {
			g.ages[c] = append(g.ages[c], a)
		}
		g.cardOf[ci], forkAge[ci] = c, a
	}
	for _, ages := range g.ages {
		slices.SortFunc(ages, forkAgeOrder)
	}
	for _, ci := range pending {
		g.ageOf[ci] = slices.Index(g.ages[g.cardOf[ci]], forkAge[ci])
	}
	var err error
	g.keeps, g.points, err = p.runTrunks(ctx, cfgs, g.ages, scratch)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// runTrunks runs one Keep-Reserved trunk per user per config over the
// worker pool, on the given per-worker scratch, and returns each
// config's baselines and resume points: user u's trunk under cfgs[c]
// captures one point per fork age in ages[c], at its ForkHour for the
// user, into points[c][u*len(ages[c]):]. The points of a config come
// from one slab, a user's reservation count bounding what each holds.
// A card missing from the plan's KeepStats cache is filled from its
// trunks; a cancelled or failed run fills nothing.
func (p *CohortPlan) runTrunks(ctx context.Context, cfgs []simulate.Config, ages [][]int, scratch []simulate.Scratch) ([][]KeepStat, [][]simulate.ResumePoint, error) {
	users := len(p.users)
	keeps := make([][]KeepStat, len(cfgs))
	points := make([][]simulate.ResumePoint, len(cfgs))
	hours := make([][]int, len(cfgs))
	for c := range cfgs {
		n := len(ages[c])
		caps := make([]int, users*n)
		for ui := range p.users {
			for a := range n {
				caps[ui*n+a] = p.users[ui].Reserved
			}
		}
		keeps[c] = make([]KeepStat, users)
		points[c] = simulate.NewResumePoints(caps)
		hours[c] = make([]int, users*n)
	}

	m := obs.FromContext(ctx)
	sp := obs.StartSpan(ctx, "baseline")
	defer sp.End()
	_, err := runPool(ctx, p.cfg.Parallelism, len(cfgs)*users, func(w, j int) error {
		c, ui := j/users, j%users
		u := &p.users[ui]
		n := len(ages[c])
		hrs := hours[c][ui*n : (ui+1)*n]
		for a, age := range ages[c] {
			hrs[a] = simulate.ForkHour(age, u.firstRes, len(u.Trace.Demand))
		}
		tot, _, err := obsTrunk(m, &scratch[w], u.Trace.Demand, u.NewRes, cfgs[c], hrs, points[c][ui*n:(ui+1)*n])
		if err != nil {
			return fmt.Errorf("experiments: user %s: %w", u.Trace.User, err)
		}
		keeps[c][ui] = KeepStat{Total: tot.Cost.Total(), IdleHours: tot.IdleHours}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for c, cfg := range cfgs {
		_, hit := p.keeps[cfg.Instance]
		if m != nil {
			if hit {
				m.BaselineHits.Add(1)
			} else {
				m.BaselineMisses.Add(1)
			}
		}
		if !hit {
			p.keeps[cfg.Instance] = keeps[c]
		}
	}
	return keeps, points, nil
}
