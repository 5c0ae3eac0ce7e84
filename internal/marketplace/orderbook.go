// Package marketplace simulates the Amazon EC2 Reserved Instance
// Marketplace rules the paper builds on (Section III.B):
//
//   - a seller lists the remaining period of a reserved instance for an
//     upfront fee of at most the prorated original upfront
//     (R * remaining/T), typically discounted by a factor a to attract
//     buyers;
//   - listings for the same instance type sell lowest-upfront-first;
//   - the marketplace keeps a service fee (Amazon charges 12%) and the
//     seller receives the rest;
//   - once sold, the seller loses the discounted hourly rate for the
//     instance's remaining period.
//
// OrderBook is the one market: an hour-stepped book whose asks follow
// month-granularity declining price schedules, safe for concurrent use
// and fully deterministic (equal asks sell in listing order).
package marketplace

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"

	"rimarket/internal/pricing"
)

// AmazonFee is the service fee Amazon charges on each sale.
const AmazonFee = 0.12

// ListingID identifies a live listing.
type ListingID int64

// ErrNoListings is returned by Buy when no listing of the requested
// type is open.
var ErrNoListings = errors.New("marketplace: no open listings for instance type")

// ProratedCap returns the maximum upfront a seller may ask: the
// original upfront scaled by the remaining fraction of the period
// (the paper's t2.nano example: half the cycle left caps the ask at $9
// of the original $18).
func ProratedCap(it pricing.InstanceType, remainingHours int) float64 {
	return it.Upfront * float64(remainingHours) / float64(it.PeriodHours)
}

// BookListing is one live order-book listing: a reservation's
// remaining period offered under a declining price schedule. Its
// effective ask is the schedule evaluated at the current
// months-remaining, so the ask is a function of the simulated hour.
type BookListing struct {
	// ID is the book-assigned identifier.
	ID ListingID
	// Seller names the listing user.
	Seller string
	// Instance is the price card of the listed reservation.
	Instance pricing.InstanceType
	// ListedAt is the hour the listing entered the book.
	ListedAt int
	// ExpiresAt is the hour the underlying reservation's remaining
	// period ends; the listing dies when the book steps to it.
	ExpiresAt int
	// Schedule is the month-granularity declining ask.
	Schedule PriceSchedule
	// EffectiveAsk is the schedule's price at the current
	// months-remaining — the book's priority key.
	EffectiveAsk float64

	seq     int64 // arrival order for equal-ask tie-breaks
	heapIdx int   // position in the type book's heap
}

// RemainingAt returns the listing's unexpired hours at the given hour.
func (l BookListing) RemainingAt(hour int) int { return l.ExpiresAt - hour }

// Trade records one completed order-book purchase.
type Trade struct {
	// ListingID identifies the listing that filled.
	ListingID ListingID
	// Seller and Buyer name the two sides.
	Seller, Buyer string
	// Instance is the traded reservation's price card.
	Instance pricing.InstanceType
	// Hour is the execution hour.
	Hour int
	// ListedAt is the hour the listing entered the book; Hour-ListedAt
	// is the listing's time-to-sale.
	ListedAt int
	// RemainingHours is the reservation's unexpired period at execution.
	RemainingHours int
	// EffectiveAsk is the scheduled ask that set the listing's priority.
	EffectiveAsk float64
	// PricePaid is what the buyer paid: the effective ask clamped to
	// the prorated cap at the execution hour.
	PricePaid float64
	// Fee and SellerProceeds split PricePaid so that
	// PricePaid == Fee + SellerProceeds holds bit-exactly (see
	// splitFee).
	Fee, SellerProceeds float64
}

// StepResult reports one hour of book aging.
type StepResult struct {
	// Hour is the book's clock after the step.
	Hour int
	// Expired holds the listings delisted this hour because their
	// remaining period ended, in listing order.
	Expired []BookListing
}

// DepthSnapshot is one instance type's market depth.
type DepthSnapshot struct {
	// Open is the number of live listings.
	Open int
	// BestAsk is the cheapest effective ask (0 when the book is empty).
	BestAsk float64
	// BestRemaining is the best listing's unexpired hours.
	BestRemaining int
}

// OrderBook is an hour-stepped two-sided reserved-instance market: the
// seller side lists remaining periods under declining price schedules,
// the buyer side fills cheapest-effective-ask-first, and the book's
// clock drives schedule crossings and listing expiry. It is safe for
// concurrent use and fully deterministic: priority is (effective ask,
// listing order), re-evaluated whenever a listing crosses a month
// boundary, and all per-hour work is bucketed by absolute hour so a
// step touches only the listings whose price or lifetime changes.
type OrderBook struct {
	mu sync.Mutex

	fee     float64
	now     int
	nextID  ListingID
	nextSeq int64
	books   map[string]*bookHeap // instance type name -> priority heap
	byID    map[ListingID]*BookListing
	expiry  map[int][]ListingID // absolute hour -> listings dying then
	reprice map[int][]ListingID // absolute hour -> listings crossing a month boundary then

	trades         []Trade
	buyerPaid      float64
	sellerProceeds float64
	feesCollected  float64
	expiredCount   int
	cancelledCount int
}

// NewOrderBook returns an empty book at hour 0 charging the given
// marketplace fee (Amazon: AmazonFee).
func NewOrderBook(fee float64) (*OrderBook, error) {
	if fee < 0 || fee >= 1 {
		return nil, fmt.Errorf("marketplace: fee %v outside [0, 1)", fee)
	}
	return &OrderBook{
		fee:     fee,
		books:   make(map[string]*bookHeap),
		byID:    make(map[ListingID]*BookListing),
		expiry:  make(map[int][]ListingID),
		reprice: make(map[int][]ListingID),
	}, nil
}

// Now returns the book's clock hour.
func (b *OrderBook) Now() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.now
}

// List offers a reservation's remaining period under the given price
// schedule. The remaining period must be a positive strict part of the
// full period and the schedule must validate against it (declining,
// under the prorated cap; see PriceSchedule.Validate).
func (b *OrderBook) List(seller string, it pricing.InstanceType, remainingHours int, sched PriceSchedule) (ListingID, error) {
	if seller == "" {
		return 0, errors.New("marketplace: empty seller")
	}
	if err := it.Validate(); err != nil {
		return 0, err
	}
	if remainingHours <= 0 || remainingHours >= it.PeriodHours {
		return 0, fmt.Errorf("marketplace: remaining hours %d outside (0, %d)", remainingHours, it.PeriodHours)
	}
	if err := sched.Validate(it, remainingHours); err != nil {
		return 0, err
	}
	months := MonthsRemaining(remainingHours)
	price, ok := sched.PriceAt(months)
	if !ok {
		return 0, fmt.Errorf("marketplace: schedule has no price at %d months remaining", months)
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	b.nextSeq++
	l := &BookListing{
		ID:           b.nextID,
		Seller:       seller,
		Instance:     it,
		ListedAt:     b.now,
		ExpiresAt:    b.now + remainingHours,
		Schedule:     sched,
		EffectiveAsk: price,
		seq:          b.nextSeq,
	}
	b.byID[l.ID] = l
	bh := b.books[it.Name]
	if bh == nil {
		bh = &bookHeap{}
		b.books[it.Name] = bh
	}
	heap.Push(bh, l)
	b.expiry[l.ExpiresAt] = append(b.expiry[l.ExpiresAt], l.ID)
	if next, ok := nextCrossing(l.ExpiresAt, months); ok {
		b.reprice[next] = append(b.reprice[next], l.ID)
	}
	return l.ID, nil
}

// nextCrossing returns the absolute hour a listing expiring at
// expiresAt drops from months to months-1 remaining (no crossing for
// the final month: expiry comes first).
func nextCrossing(expiresAt, months int) (int, bool) {
	if months <= 1 {
		return 0, false
	}
	return expiresAt - (months-1)*HoursPerMonth, true
}

// ListDeclining lists under the default declining schedule at the
// given discount of the prorated cap — the paper's a, stepped monthly.
func (b *OrderBook) ListDeclining(seller string, it pricing.InstanceType, remainingHours int, discount float64) (ListingID, error) {
	sched, err := DecliningSchedule(it, remainingHours, discount)
	if err != nil {
		return 0, err
	}
	return b.List(seller, it, remainingHours, sched)
}

// Cancel withdraws an open listing.
func (b *OrderBook) Cancel(id ListingID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	l, ok := b.byID[id]
	if !ok {
		return fmt.Errorf("marketplace: listing %d not open", id)
	}
	b.dropLocked(l)
	b.cancelledCount++
	return nil
}

// dropLocked removes a live listing from the heap and the ID index.
// Its expiry/reprice bucket entries go stale and are skipped when
// their hour arrives (IDs are never reused).
func (b *OrderBook) dropLocked(l *BookListing) {
	bh := b.books[l.Instance.Name]
	heap.Remove(bh, l.heapIdx)
	if bh.Len() == 0 {
		delete(b.books, l.Instance.Name)
	}
	delete(b.byID, l.ID)
}

// Step advances the book one hour: listings whose remaining period
// ends this hour are delisted (expiry), then listings crossing a month
// boundary take their next scheduled price (heap positions fixed).
// Both walks are in listing order, so the step is deterministic.
func (b *OrderBook) Step() StepResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now++
	res := StepResult{Hour: b.now}
	if ids := b.expiry[b.now]; len(ids) > 0 {
		for _, id := range ids {
			l, ok := b.byID[id]
			if !ok {
				continue // sold or cancelled before expiry
			}
			b.dropLocked(l)
			b.expiredCount++
			res.Expired = append(res.Expired, *l)
		}
		delete(b.expiry, b.now)
	}
	if ids := b.reprice[b.now]; len(ids) > 0 {
		for _, id := range ids {
			l, ok := b.byID[id]
			if !ok {
				continue
			}
			months := MonthsRemaining(l.ExpiresAt - b.now)
			if price, ok := l.Schedule.PriceAt(months); ok {
				l.EffectiveAsk = price
				heap.Fix(b.books[l.Instance.Name], l.heapIdx)
			}
			if next, ok := nextCrossing(l.ExpiresAt, months); ok {
				b.reprice[next] = append(b.reprice[next], l.ID)
			}
		}
		delete(b.reprice, b.now)
	}
	return res
}

// Buy purchases up to count instances of the named type,
// cheapest-effective-ask-first with listing-order tie-breaks. The
// price paid is the effective ask clamped to the prorated cap at the
// execution hour (the cap keeps shrinking within a month while the
// scheduled ask is flat). Fewer than count fills is not an error, but
// an empty book is ErrNoListings.
func (b *OrderBook) Buy(buyer, instanceType string, count int) ([]Trade, error) {
	if buyer == "" {
		return nil, errors.New("marketplace: empty buyer")
	}
	if count <= 0 {
		return nil, fmt.Errorf("marketplace: count %d must be positive", count)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	bh := b.books[instanceType]
	if bh == nil || bh.Len() == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoListings, instanceType)
	}
	n := count
	if n > bh.Len() {
		n = bh.Len()
	}
	trades := make([]Trade, 0, n)
	for i := 0; i < n; i++ {
		l := heap.Pop(bh).(*BookListing)
		delete(b.byID, l.ID)
		remaining := l.ExpiresAt - b.now
		price := l.EffectiveAsk
		if cap := ProratedCap(l.Instance, remaining); price > cap {
			price = cap
		}
		fee, proceeds := splitFee(price, b.fee)
		tr := Trade{
			ListingID:      l.ID,
			Seller:         l.Seller,
			Buyer:          buyer,
			Instance:       l.Instance,
			Hour:           b.now,
			ListedAt:       l.ListedAt,
			RemainingHours: remaining,
			EffectiveAsk:   l.EffectiveAsk,
			PricePaid:      price,
			Fee:            fee,
			SellerProceeds: proceeds,
		}
		b.trades = append(b.trades, tr)
		b.buyerPaid += price
		b.sellerProceeds += proceeds
		b.feesCollected += fee
		trades = append(trades, tr)
	}
	if bh.Len() == 0 {
		delete(b.books, instanceType)
	}
	return trades, nil
}

// splitFee splits a price into the marketplace's fee and the seller's
// proceeds such that fee + proceeds == price holds bit-exactly. The
// larger share is computed by multiplication and the smaller as the
// difference; because the larger share is at least price/2, Sterbenz's
// lemma makes the subtraction exact, so the two shares recompose to
// the price with no rounding — the conservation suite asserts this
// per trade and over whole sessions.
func splitFee(price, rate float64) (fee, proceeds float64) {
	if rate <= 0.5 {
		proceeds = price * (1 - rate)
		fee = price - proceeds
		return fee, proceeds
	}
	fee = price * rate
	proceeds = price - fee
	return fee, proceeds
}

// OpenCount returns the number of live listings across all types.
func (b *OrderBook) OpenCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.byID)
}

// TypeCount returns the number of instance types with at least one
// live listing (the books map never retains drained types).
func (b *OrderBook) TypeCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.books)
}

// Depth returns the named type's market depth.
func (b *OrderBook) Depth(instanceType string) DepthSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	bh := b.books[instanceType]
	if bh == nil || bh.Len() == 0 {
		return DepthSnapshot{}
	}
	best := bh.ls[0]
	return DepthSnapshot{
		Open:          bh.Len(),
		BestAsk:       best.EffectiveAsk,
		BestRemaining: best.ExpiresAt - b.now,
	}
}

// OpenBook returns the named type's live listings in priority order
// (cheapest effective ask first, listing order on ties). The result
// is a copy.
func (b *OrderBook) OpenBook(instanceType string) []BookListing {
	b.mu.Lock()
	defer b.mu.Unlock()
	bh := b.books[instanceType]
	if bh == nil {
		return nil
	}
	out := make([]BookListing, len(bh.ls))
	for i, l := range bh.ls {
		out[i] = *l
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EffectiveAsk != out[j].EffectiveAsk {
			return out[i].EffectiveAsk < out[j].EffectiveAsk
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// Trades returns a copy of all completed trades in execution order.
func (b *OrderBook) Trades() []Trade {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Trade(nil), b.trades...)
}

// DrainTrades returns the trade ledger accumulated since the last
// drain and resets it, so a long-lived session can consume trades
// incrementally instead of holding every execution in memory. The
// money totals (Totals) are unaffected.
func (b *OrderBook) DrainTrades() []Trade {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.trades
	b.trades = nil
	return out
}

// Totals returns the book's money flows: everything buyers paid,
// everything sellers received, and the marketplace's fees. The
// conservation invariant paid == proceeds + fees holds bit-exactly
// when the three are re-derived from the trade ledger in execution
// order (each trade recomposes exactly; see splitFee).
func (b *OrderBook) Totals() (buyerPaid, sellerProceeds, fees float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buyerPaid, b.sellerProceeds, b.feesCollected
}

// ExpiredCount returns the number of listings whose remaining period
// ended on the book without selling.
func (b *OrderBook) ExpiredCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.expiredCount
}

// CancelledCount returns the number of listings withdrawn by Cancel.
func (b *OrderBook) CancelledCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cancelledCount
}

// bookHeap is one instance type's priority queue: a min-heap on
// (effective ask, listing order), with heap indices maintained on the
// listings so cancellation and repricing are O(log n).
type bookHeap struct {
	ls []*BookListing
}

func (h *bookHeap) Len() int { return len(h.ls) }

func (h *bookHeap) Less(i, j int) bool {
	a, b := h.ls[i], h.ls[j]
	if a.EffectiveAsk != b.EffectiveAsk {
		return a.EffectiveAsk < b.EffectiveAsk
	}
	return a.seq < b.seq
}

func (h *bookHeap) Swap(i, j int) {
	h.ls[i], h.ls[j] = h.ls[j], h.ls[i]
	h.ls[i].heapIdx = i
	h.ls[j].heapIdx = j
}

func (h *bookHeap) Push(x any) {
	l := x.(*BookListing)
	l.heapIdx = len(h.ls)
	h.ls = append(h.ls, l)
}

func (h *bookHeap) Pop() any {
	old := h.ls
	n := len(old)
	l := old[n-1]
	old[n-1] = nil
	h.ls = old[:n-1]
	return l
}
