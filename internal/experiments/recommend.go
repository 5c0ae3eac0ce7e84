package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"rimarket/internal/obs"
	"rimarket/internal/simulate"
)

// Point-in-time recommendation actions. The vocabulary is closed: a
// Recommendation's Action is always exactly one of these strings.
const (
	// ActionSell: the policy's checkpoint falls on the queried hour and
	// the decision rule says sell now.
	ActionSell = "sell"
	// ActionKeep: the policy has no further checkpoints for this
	// instance inside the horizon; it rides to expiry.
	ActionKeep = "keep"
	// ActionHold: keep for now — the policy revisits the decision at
	// NextCheckpoint.
	ActionHold = "hold"
	// ActionSold: the instance was already sold before the queried hour.
	ActionSold = "sold"
	// ActionExpired: the reservation period ended before the queried
	// hour.
	ActionExpired = "expired"
	// ActionPending: the instance is not reserved yet at the queried
	// hour.
	ActionPending = "pending"
)

// Sentinel errors Evaluate wraps, so servers can map lookup failures
// to status codes without string matching.
var (
	ErrUnknownUser     = errors.New("experiments: unknown user")
	ErrUnknownPolicy   = errors.New("experiments: unknown policy")
	ErrUnknownInstance = errors.New("experiments: unknown instance")
	ErrHourOutOfRange  = errors.New("experiments: hour outside horizon")
)

// Query is one point-in-time recommendation request: should this
// user's instance (by reservation-order index) be sold at this hour?
type Query struct {
	User     string `json:"user"`
	Policy   string `json:"policy"`
	Instance int    `json:"instance"`
	Hour     int    `json:"hour"`
}

// Recommendation is the deterministic answer to a Query. It is the
// wire type the rid daemon serves verbatim, which is why every field
// is a plain JSON-stable scalar: marshaling a Recommendation computed
// offline and one computed by a daemon holding the same snapshot must
// yield identical bytes.
type Recommendation struct {
	User     string `json:"user"`
	Policy   string `json:"policy"`
	Instance int    `json:"instance"`
	Hour     int    `json:"hour"`
	// Action is the verdict at Hour: sell, keep, hold, sold, expired or
	// pending.
	Action string `json:"action"`
	// Start is the hour the instance was reserved; ExpiresAt is
	// Start + PeriodHours.
	Start     int `json:"start"`
	ExpiresAt int `json:"expires_at"`
	// SoldAt is the hour the policy sells the instance over the whole
	// replay, -1 when it never sells.
	SoldAt int `json:"sold_at"`
	// NextCheckpoint is the next hour after Hour at which the policy
	// revisits the decision, -1 when there is none (only set for
	// ActionHold).
	NextCheckpoint int `json:"next_checkpoint"`
	// Reserved is the user's total number of reserved instances.
	Reserved int `json:"reserved"`
	// KeepCost is the user's Keep-Reserved baseline total (Eq. 1);
	// PolicyCost the full-replay total under the queried policy.
	KeepCost   float64 `json:"keep_cost"`
	PolicyCost float64 `json:"policy_cost"`
}

// instSkeleton is the policy-independent identity of one reserved
// instance: reservation decisions are fixed inputs (the paper's
// pipeline plans them before any selling is considered), so start,
// batch index and expiry are shared by every policy's decision table.
type instSkeleton struct {
	start, batch, expiry int
}

// userDecisions is one (policy, user) decision table: the replay's
// sale hour per instance plus the run's total cost. A nil soldAt means
// the policy never sells (Keep-Reserved). ages is non-nil only for
// per-instance policies; everyone else shares policyDecisions.ages.
type userDecisions struct {
	soldAt []int
	ages   [][]int
	cost   float64
}

// policyDecisions is one policy's decision tables across the cohort.
type policyDecisions struct {
	ages  []int // shared checkpoint ages; nil for per-instance policies
	users []userDecisions
}

// DecisionSet is the immutable point-in-time evaluation state: every
// (policy, user, instance) selling decision resolved once from the
// replay engine, plus the Keep-Reserved baselines. It is the snapshot
// a recommendation daemon holds resident and swaps atomically — after
// construction it is never mutated, so Evaluate is lock-free and
// allocation-free, safe for any number of concurrent readers.
//
// Answers are bit-identical to the offline pipeline by construction:
// the tables come from the same engine replay the experiment drivers
// use (a Scratch.Resume from the Keep-Reserved trunk, whose Totals
// and Records equal simulate.Run's cost and instances), and
// simulate.DecisionAges shares the engine's checkpoint-age resolution.
//
//rilint:frozen
type DecisionSet struct {
	cfg       Config
	horizon   int
	policies  []string
	byPolicy  map[string]*policyDecisions
	skel      []userSkeleton
	keeps     []KeepStat
	userIndex map[string]int
}

// userSkeleton names one user and lists its reserved instances in
// reservation order (start ascending, batch index ascending — the
// order simulate.Result.Instances uses).
type userSkeleton struct {
	name  string
	insts []instSkeleton
}

// Decisions resolves the plan's full decision tables: every (selling
// policy, user) replay, the Keep-Reserved baselines, and the
// per-instance checkpoint ages. A replay is the Keep-Reserved replay
// until its policy's first checkpoint, so each user's Keep-Reserved
// trunk runs once, capturing a resume point at every distinct fork age
// of the selling policies (and filling the plan's KeepStats cache),
// and each (policy, user) table is read from the records of a replay
// resumed at its fork hour. The fan-out honors Config.Parallelism and
// cancelling ctx drains it; metrics on ctx observe the runs like any
// other driver. The result is immutable and independent of the plan's
// lifetime.
func (p *CohortPlan) Decisions(ctx context.Context) (*DecisionSet, error) {
	sp := obs.StartSpan(ctx, "decisions")
	defer sp.End()
	m := obs.FromContext(ctx)

	policies, err := buildPolicies(p.cfg)
	if err != nil {
		return nil, err
	}
	engCfg := p.engineConfig()
	if m != nil {
		engCfg.Metrics = m.EngineHook()
	}
	s, replayed := p.newDecisionSet(policies)

	// One fork age per distinct first checkpoint, in capture order.
	period := p.cfg.Instance.PeriodHours
	var ages []int
	forkAge := make([]int, len(replayed))
	for k, np := range replayed {
		forkAge[k] = simulate.ForkAge(np.policy, period)
		if !slices.Contains(ages, forkAge[k]) {
			ages = append(ages, forkAge[k])
		}
	}
	slices.SortFunc(ages, forkAgeOrder)
	for k := range forkAge {
		forkAge[k] = slices.Index(ages, forkAge[k])
	}

	users := len(p.users)
	jobs := len(replayed) * users
	scratch := make([]simulate.Scratch, workerCount(p.cfg.Parallelism, max(jobs, users)))
	keeps, points, err := p.runTrunks(ctx, []simulate.Config{engCfg}, [][]int{ages}, scratch)
	if err != nil {
		return nil, err
	}
	s.setKeeps(keeps[0])

	// Fan the (policy, user) resumes out over the worker pool, each
	// worker on its own Scratch; each job copies what it keeps out of
	// the scratch's records and writes a distinct table slot, so
	// results are identical at any parallelism.
	_, err = runPool(ctx, p.cfg.Parallelism, jobs, func(w, k int) error {
		pi, ui := k/users, k%users
		np := replayed[pi]
		pt := &points[0][ui*len(ages)+forkAge[pi]]
		tot, _, err := obsResume(m, &scratch[w], ui, pt, engCfg, np.policy)
		if err != nil {
			return fmt.Errorf("experiments: policy %s: user %s: %w", np.name, p.users[ui].Trace.User, err)
		}
		pd := s.byPolicy[np.name]
		pd.users[ui] = pd.table(np.policy, period, tot, scratch[w].Records())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// newDecisionSet lays out the plan's decision set: every user's
// instance skeleton and one empty table per policy, in presentation
// order. It returns the selling policies, whose tables replays fill;
// Keep-Reserved never sells, so its table needs no replay (nil soldAt
// means "never sold") and takes its costs from setKeeps.
func (p *CohortPlan) newDecisionSet(policies []namedPolicy) (*DecisionSet, []namedPolicy) {
	period := p.cfg.Instance.PeriodHours
	s := &DecisionSet{
		cfg:       p.cfg,
		horizon:   p.cfg.Hours,
		byPolicy:  make(map[string]*policyDecisions, len(policies)),
		skel:      make([]userSkeleton, len(p.users)),
		userIndex: make(map[string]int, len(p.users)),
	}
	for i, u := range p.users {
		insts := make([]instSkeleton, 0, u.Reserved)
		for t, n := range u.NewRes {
			for b := 1; b <= n; b++ {
				insts = append(insts, instSkeleton{start: t, batch: b, expiry: t + period})
			}
		}
		s.skel[i] = userSkeleton{name: u.Trace.User, insts: insts}
		s.userIndex[u.Trace.User] = i
	}
	var replayed []namedPolicy
	for _, np := range policies {
		s.policies = append(s.policies, np.name)
		pd := &policyDecisions{users: make([]userDecisions, len(p.users))}
		s.byPolicy[np.name] = pd
		if np.name == PolicyKeep {
			continue
		}
		if _, perInst := np.policy.(simulate.PerInstancePolicy); !perInst {
			pd.ages = simulate.DecisionAges(np.policy, 0, 1, period)
		}
		replayed = append(replayed, np)
	}
	return s, replayed
}

// setKeeps installs the Keep-Reserved baselines, which are also the
// Keep-Reserved table's costs.
func (s *DecisionSet) setKeeps(keeps []KeepStat) {
	s.keeps = keeps
	pd := s.byPolicy[PolicyKeep]
	for i := range pd.users {
		pd.users[i] = userDecisions{cost: keeps[i].Total}
	}
}

// table copies one user's decision table under policy out of a
// replay's totals and records, which belong to the replaying Scratch.
// A policy without shared checkpoint ages gets each instance's own.
func (pd *policyDecisions) table(policy simulate.SellingPolicy, period int, tot simulate.Totals, recs []simulate.InstanceRecord) userDecisions {
	ud := userDecisions{soldAt: make([]int, len(recs)), cost: tot.Cost.Total()}
	if pd.ages == nil {
		ud.ages = make([][]int, len(recs))
	}
	for j, in := range recs {
		ud.soldAt[j] = in.SoldAt
		if ud.ages != nil {
			ud.ages[j] = simulate.DecisionAges(policy, in.Start, in.BatchIndex, period)
		}
	}
	return ud
}

// Config returns the experiment configuration the set was built from.
func (s *DecisionSet) Config() Config { return s.cfg }

// Horizon returns the queryable hour range: Evaluate accepts hours in
// [0, Horizon).
func (s *DecisionSet) Horizon() int { return s.horizon }

// Policies lists the policy names the set can answer for, in
// presentation order.
func (s *DecisionSet) Policies() []string { return s.policies }

// Users returns the number of users in the set.
func (s *DecisionSet) Users() int { return len(s.skel) }

// UserName returns the i-th user's name in cohort order.
func (s *DecisionSet) UserName(i int) string { return s.skel[i].name }

// Reserved returns the i-th user's number of reserved instances.
func (s *DecisionSet) Reserved(i int) int { return len(s.skel[i].insts) }

// Evaluate answers one point-in-time query from the resolved tables.
// It never blocks, takes no locks, and allocates only on the error
// path, so a server can call it from any number of goroutines against
// an atomically swapped *DecisionSet.
func (s *DecisionSet) Evaluate(q Query) (Recommendation, error) {
	ui, ok := s.userIndex[q.User]
	if !ok {
		return Recommendation{}, fmt.Errorf("%w: %q", ErrUnknownUser, q.User)
	}
	pd, ok := s.byPolicy[q.Policy]
	if !ok {
		return Recommendation{}, fmt.Errorf("%w: %q", ErrUnknownPolicy, q.Policy)
	}
	if q.Hour < 0 || q.Hour >= s.horizon {
		return Recommendation{}, fmt.Errorf("%w: hour %d outside [0, %d)", ErrHourOutOfRange, q.Hour, s.horizon)
	}
	sk := &s.skel[ui]
	if q.Instance < 0 || q.Instance >= len(sk.insts) {
		return Recommendation{}, fmt.Errorf("%w: user %q has %d reserved instances, asked for index %d",
			ErrUnknownInstance, q.User, len(sk.insts), q.Instance)
	}
	in := sk.insts[q.Instance]
	ud := &pd.users[ui]
	soldAt := -1
	if ud.soldAt != nil {
		soldAt = ud.soldAt[q.Instance]
	}
	ages := pd.ages
	if ud.ages != nil {
		ages = ud.ages[q.Instance]
	}

	r := Recommendation{
		User:           q.User,
		Policy:         q.Policy,
		Instance:       q.Instance,
		Hour:           q.Hour,
		Start:          in.start,
		ExpiresAt:      in.expiry,
		SoldAt:         soldAt,
		NextCheckpoint: -1,
		Reserved:       len(sk.insts),
		KeepCost:       s.keeps[ui].Total,
		PolicyCost:     ud.cost,
	}
	switch {
	case q.Hour < in.start:
		r.Action = ActionPending
	case soldAt >= 0 && q.Hour == soldAt:
		r.Action = ActionSell
	case soldAt >= 0 && q.Hour > soldAt:
		r.Action = ActionSold
	case q.Hour >= in.expiry:
		r.Action = ActionExpired
	default:
		// Held at q.Hour. The next consultation is the first checkpoint
		// age strictly after q.Hour that the engine actually reaches:
		// ages are sorted, and checkpoints at or beyond the horizon are
		// never consulted (the replay ends first).
		r.Action = ActionKeep
		for _, a := range ages {
			ck := in.start + a
			if ck >= s.horizon {
				break
			}
			if ck > q.Hour {
				r.Action = ActionHold
				r.NextCheckpoint = ck
				break
			}
		}
	}
	return r, nil
}
