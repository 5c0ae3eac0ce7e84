package simulate

// DecisionAges resolves the checkpoint ages at which Run consults the
// selling policy for the instance reserved at hour start with the given
// 1-based batch index, exactly as the engine resolves them: a
// PerInstancePolicy assigns each instance its own single age (dropped
// when outside (0, periodHours)), a MultiCheckpointPolicy contributes
// its full age list sorted, deduplicated and restricted to
// (0, periodHours), and a plain SellingPolicy its one CheckpointAge.
// The returned ages are relative to the instance's start hour.
//
// DecisionAges exists so point-in-time policy evaluation (the rid
// daemon's "should user U sell instance I now?" lookup, built in
// internal/experiments) shares one source of truth with the replay
// engine instead of re-deriving checkpoint semantics.
//
// For policies that do not implement PerInstancePolicy the result is
// independent of start and batchIndex, so callers evaluating a whole
// cohort can resolve the ages once and share the slice.
func DecisionAges(policy SellingPolicy, start, batchIndex, periodHours int) []int {
	if perInst, ok := policy.(PerInstancePolicy); ok {
		if age := perInst.InstanceCheckpointAge(start, batchIndex, periodHours); age > 0 && age < periodHours {
			return []int{age}
		}
		return nil
	}
	return checkpointAges(policy, periodHours)
}

// LastDecisionHour is the latest hour before horizon at which a replay
// of the reservation series newRes consults policy: the largest
// start+age < horizon over every instance newRes reserves, with the
// ages the replay resolves — DecisionAges for a PerInstancePolicy, the
// shared sorted ages otherwise. It is -1 when no checkpoint falls
// before horizon: a policy that never sells, or no reservation early
// enough. Only the first min(horizon, len(newRes)) hours reserve.
//
// The replay is causal: the decision at hour t reads the working time
// served before t, and that depends on the demand and reservations up
// to t alone. So a replay of demand[:h+1] and newRes[:h+1], for h =
// LastDecisionHour, gives every instance it reserves the full replay's
// SoldAt and WorkedAtCheckpoint, and the instances reserved after h
// are never consulted; only the costs after h differ.
func LastDecisionHour(newRes []int, policy SellingPolicy, periodHours, horizon int) int {
	if policy == nil {
		return -1
	}
	_, perInstance := policy.(PerInstancePolicy)
	var buf [4]int // a few shared ages resolve without allocating
	var ages []int
	minAge, maxAge := 1, periodHours-1
	if !perInstance {
		if ages = appendCheckpointAges(buf[:0], policy, periodHours); len(ages) == 0 {
			return -1
		}
		minAge, maxAge = ages[0], ages[len(ages)-1]
	}
	// Latest reservation hour first, from the last one that can decide
	// before horizon: an instance reserved at s decides no earlier than
	// s+minAge and no later than s+maxAge, so the walk ends once that
	// cannot pass the latest decision found.
	last := -1
	for s := min(horizon-minAge, len(newRes)) - 1; s >= 0 && s+maxAge > last; s-- {
		if newRes[s] <= 0 {
			continue
		}
		if !perInstance {
			last = max(last, latestBefore(ages, s, horizon))
			continue
		}
		for b := 1; b <= newRes[s]; b++ {
			last = max(last, latestBefore(DecisionAges(policy, s, b, periodHours), s, horizon))
		}
	}
	return last
}

// latestBefore is the largest start+a < horizon over the sorted ages,
// or -1 when there is none.
func latestBefore(ages []int, start, horizon int) int {
	for k := len(ages) - 1; k >= 0; k-- {
		if h := start + ages[k]; h < horizon {
			return h
		}
	}
	return -1
}
