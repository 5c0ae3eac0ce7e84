package simulate

import (
	"fmt"
	"sort"
)

// PositionStep is one piece of an instance's window position over its
// life: from age Age on, until the next step's age or the end of the
// period, the instance sits at position Pos of the active window, so in
// an hour of demand d it is busy iff d > Pos.
type PositionStep struct {
	Age, Pos int
}

// Positions appends to dst[:0] record i's window position over its
// life in the last successful replay on s, one step per change, ages
// strictly increasing from 0 and below the period. It is the closed
// form of the record's busy schedule: at age a, with the replay's
// demand d, the record is busy iff its hour Start+a lies before the
// horizon and d[Start+a] exceeds the position of the last step at or
// before a. It returns an error, not a description, after a replay that
// sold any instance. After a Resume the steps come from the resume
// point's batch list, which must not be captured into in between.
//
// In a replay that sells nothing the window changes only by expiries
// at its head and activations at its tail (see Run), so it is always
// every batch reserved so far, less the instances already expired, in
// working-sequence order. An instance j of the batch on slab indices
// [lo, hi) therefore has working-sequence rank r = lo + (hi-1-j), and
// at hour t its window position is r - E(t), where E(t) counts the
// instances with Start + T ≤ t. During j's life only batches reserved
// before it expire, so E steps at their expiries alone: one step per
// earlier batch reserved less than a period before j.
func (s *Scratch) Positions(dst []PositionStep, i int) ([]PositionStep, error) {
	batches := s.ran
	if s.sold > 0 {
		return dst[:0], fmt.Errorf("simulate: the replay sold %d instances, so window positions have no closed form", s.sold)
	}
	if len(batches) == 0 || i < 0 || i >= batches[len(batches)-1].hi {
		return dst[:0], fmt.Errorf("simulate: no record %d in the last replay", i)
	}
	b := sort.Search(len(batches), func(k int) bool { return batches[k].hi > i })
	start, lo, hi := batches[b].hour, batches[b].lo, batches[b].hi
	period := s.slab[i].expiry - start
	rank := lo + (hi - 1 - i)
	// The first batch still active at start; those before it expired.
	k := sort.Search(b, func(k int) bool { return batches[k].hour+period > start })
	expired := 0
	if k > 0 {
		expired = batches[k-1].hi
	}
	dst = append(dst[:0], PositionStep{Age: 0, Pos: rank - expired})
	for _, e := range batches[k:b] {
		dst = append(dst, PositionStep{Age: e.hour + period - start, Pos: rank - e.hi})
	}
	return dst, nil
}
