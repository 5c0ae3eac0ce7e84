package marketplace

import (
	"errors"
	"testing"

	"rimarket/internal/pricing"
)

func mustBook(t *testing.T, fee float64) *OrderBook {
	t.Helper()
	b, err := NewOrderBook(fee)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewOrderBookValidatesFee(t *testing.T) {
	for _, fee := range []float64{-0.1, 1, 1.5} {
		if _, err := NewOrderBook(fee); err == nil {
			t.Errorf("fee %v accepted", fee)
		}
	}
	if _, err := NewOrderBook(AmazonFee); err != nil {
		t.Fatal(err)
	}
}

func TestOrderBookListValidation(t *testing.T) {
	b := mustBook(t, AmazonFee)
	it := yearCard()
	sched := PriceSchedule{{Term: 6, Price: 300}}
	rem := 6 * HoursPerMonth
	if _, err := b.List("", it, rem, sched); err == nil {
		t.Error("empty seller accepted")
	}
	if _, err := b.List("s", it, 0, sched); err == nil {
		t.Error("zero remaining accepted")
	}
	if _, err := b.List("s", it, it.PeriodHours, sched); err == nil {
		t.Error("full period accepted")
	}
	if _, err := b.List("s", it, rem, PriceSchedule{}); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := b.List("s", it, rem, sched); err != nil {
		t.Fatalf("valid listing rejected: %v", err)
	}
}

func TestOrderBookPriorityAndTies(t *testing.T) {
	b := mustBook(t, 0)
	it := yearCard()
	rem := 6 * HoursPerMonth
	cheap := PriceSchedule{{Term: 6, Price: 200}}
	dear := PriceSchedule{{Term: 6, Price: 300}}
	idDear, _ := b.List("dear", it, rem, dear)
	idCheapA, _ := b.List("cheap-a", it, rem, cheap)
	idCheapB, _ := b.List("cheap-b", it, rem, cheap)

	trades, err := b.Buy("buyer", it.Name, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trades) != 3 {
		t.Fatalf("filled %d, want 3", len(trades))
	}
	// Cheapest first; the equal-ask pair fills in listing order.
	if trades[0].ListingID != idCheapA || trades[1].ListingID != idCheapB || trades[2].ListingID != idDear {
		t.Errorf("fill order %d,%d,%d, want %d,%d,%d",
			trades[0].ListingID, trades[1].ListingID, trades[2].ListingID, idCheapA, idCheapB, idDear)
	}
}

// TestOrderBookScheduleCrossing pins the priority rule under schedule
// crossings: a listing that starts more expensive but whose schedule
// steps below a rival's at the next month boundary overtakes it there,
// deterministically.
func TestOrderBookScheduleCrossing(t *testing.T) {
	it := yearCard()
	rem := 6 * HoursPerMonth
	flat := PriceSchedule{{Term: 6, Price: 300}}
	crossing := PriceSchedule{{Term: 6, Price: 310}, {Term: 5, Price: 100}}

	// Before the boundary: the flat listing is cheaper.
	b := mustBook(t, 0)
	idFlat, _ := b.List("flat", it, rem, flat)
	b.List("crossing", it, rem, crossing)
	trades, err := b.Buy("buyer", it.Name, 1)
	if err != nil {
		t.Fatal(err)
	}
	if trades[0].ListingID != idFlat || trades[0].PricePaid != 300 {
		t.Fatalf("pre-crossing fill = listing %d at %v, want %d at 300", trades[0].ListingID, trades[0].PricePaid, idFlat)
	}

	// One month later the crossing schedule has stepped to 100.
	b = mustBook(t, 0)
	b.List("flat", it, rem, flat)
	idCrossing, _ := b.List("crossing", it, rem, crossing)
	for h := 0; h < HoursPerMonth; h++ {
		b.Step()
	}
	if d := b.Depth(it.Name); d.BestAsk != 100 {
		t.Fatalf("best ask after crossing = %v, want 100", d.BestAsk)
	}
	trades, err = b.Buy("buyer", it.Name, 1)
	if err != nil {
		t.Fatal(err)
	}
	if trades[0].ListingID != idCrossing || trades[0].EffectiveAsk != 100 {
		t.Fatalf("post-crossing fill = listing %d at ask %v, want %d at 100", trades[0].ListingID, trades[0].EffectiveAsk, idCrossing)
	}
}

func TestOrderBookExpiry(t *testing.T) {
	b := mustBook(t, 0)
	it := yearCard()
	id, err := b.List("s", it, 5, PriceSchedule{{Term: 1, Price: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= 4; h++ {
		if res := b.Step(); len(res.Expired) != 0 {
			t.Fatalf("hour %d: premature expiry", h)
		}
	}
	res := b.Step()
	if len(res.Expired) != 1 || res.Expired[0].ID != id {
		t.Fatalf("hour 5: expired %v, want listing %d", res.Expired, id)
	}
	if res.Expired[0].RemainingAt(res.Hour) != 0 {
		t.Errorf("expiry fired with %d hours remaining", res.Expired[0].RemainingAt(res.Hour))
	}
	if b.OpenCount() != 0 || b.ExpiredCount() != 1 || b.TypeCount() != 0 {
		t.Errorf("post-expiry book: open %d, expired %d, types %d", b.OpenCount(), b.ExpiredCount(), b.TypeCount())
	}
	if _, err := b.Buy("buyer", it.Name, 1); !errors.Is(err, ErrNoListings) {
		t.Errorf("buy after expiry: %v, want ErrNoListings", err)
	}
}

func TestOrderBookCancel(t *testing.T) {
	b := mustBook(t, 0)
	it := yearCard()
	id, _ := b.List("s", it, 6*HoursPerMonth, PriceSchedule{{Term: 6, Price: 300}})
	if err := b.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := b.Cancel(id); err == nil {
		t.Error("double cancel accepted")
	}
	if b.OpenCount() != 0 || b.CancelledCount() != 1 || b.TypeCount() != 0 {
		t.Errorf("post-cancel book: open %d, cancelled %d, types %d", b.OpenCount(), b.CancelledCount(), b.TypeCount())
	}
	// A cancelled listing's stale expiry bucket entry is skipped.
	for h := 0; h <= 6*HoursPerMonth; h++ {
		if res := b.Step(); len(res.Expired) != 0 {
			t.Fatalf("cancelled listing expired at hour %d", res.Hour)
		}
	}
}

// TestOrderBookCapClamp pins the execution rule: within a term the cap
// keeps shrinking while the scheduled ask is flat, so a fill near
// expiry pays the cap, not the ask.
func TestOrderBookCapClamp(t *testing.T) {
	b := mustBook(t, 0)
	it := yearCard()
	rem := HoursPerMonth // final month: cap 100 at the start
	cap0 := ProratedCap(it, rem)
	sched := PriceSchedule{{Term: 1, Price: cap0}}
	if _, err := b.List("s", it, rem, sched); err != nil {
		t.Fatal(err)
	}
	steps := HoursPerMonth / 2
	for h := 0; h < steps; h++ {
		b.Step()
	}
	trades, err := b.Buy("buyer", it.Name, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := trades[0]
	wantCap := ProratedCap(it, rem-steps)
	if tr.EffectiveAsk != cap0 {
		t.Errorf("effective ask %v, want the scheduled %v", tr.EffectiveAsk, cap0)
	}
	if tr.PricePaid != wantCap {
		t.Errorf("price paid %v, want clamped cap %v", tr.PricePaid, wantCap)
	}
	if tr.RemainingHours != rem-steps {
		t.Errorf("remaining at fill %d, want %d", tr.RemainingHours, rem-steps)
	}
}

func TestOrderBookBuyErrorsAndPartialFill(t *testing.T) {
	b := mustBook(t, AmazonFee)
	it := yearCard()
	b.List("s", it, 6*HoursPerMonth, PriceSchedule{{Term: 6, Price: 300}})
	if _, err := b.Buy("", it.Name, 1); err == nil {
		t.Error("empty buyer accepted")
	}
	if _, err := b.Buy("b", it.Name, 0); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := b.Buy("b", "no-such-type", 1); !errors.Is(err, ErrNoListings) {
		t.Error("unknown type did not return ErrNoListings")
	}
	trades, err := b.Buy("b", it.Name, 5)
	if err != nil || len(trades) != 1 {
		t.Fatalf("partial fill = (%v, %v), want one trade", trades, err)
	}
}

func TestOrderBookDepthAndDrain(t *testing.T) {
	b := mustBook(t, 0)
	it := yearCard()
	b.List("s1", it, 6*HoursPerMonth, PriceSchedule{{Term: 6, Price: 300}})
	b.List("s2", it, 5*HoursPerMonth, PriceSchedule{{Term: 5, Price: 200}})
	d := b.Depth(it.Name)
	if d.Open != 2 || d.BestAsk != 200 || d.BestRemaining != 5*HoursPerMonth {
		t.Errorf("depth %+v", d)
	}
	if d := b.Depth("empty"); d.Open != 0 || d.BestAsk != 0 {
		t.Errorf("empty depth %+v", d)
	}
	open := b.OpenBook(it.Name)
	if len(open) != 2 || open[0].Seller != "s2" || open[1].Seller != "s1" {
		t.Errorf("open book order %v", open)
	}
	if _, err := b.Buy("b", it.Name, 2); err != nil {
		t.Fatal(err)
	}
	if got := b.DrainTrades(); len(got) != 2 {
		t.Fatalf("drained %d trades, want 2", len(got))
	}
	if got := b.DrainTrades(); len(got) != 0 {
		t.Fatalf("second drain returned %d trades", len(got))
	}
	paid, proceeds, fees := b.Totals()
	if paid != 500 || proceeds != 500 || fees != 0 {
		t.Errorf("totals after drain = %v/%v/%v, want 500/500/0", paid, proceeds, fees)
	}
}

// TestMarketBookMapShrinks is the regression test for per-type map
// growth: Buy, Cancel and Step-driven expiry must delete drained
// per-type heaps, so a long-lived book over many instance types does
// not retain one empty heap per type forever.
func TestMarketBookMapShrinks(t *testing.T) {
	b := mustBook(t, AmazonFee)
	card := func(i int) pricing.InstanceType {
		it := yearCard()
		it.Name = it.Name + string(rune('a'+i))
		return it
	}
	sched := PriceSchedule{{Term: 1, Price: 1}}

	// Drain via Buy.
	itBuy := card(0)
	if _, err := b.List("s", itBuy, 100, sched); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Buy("b", itBuy.Name, 1); err != nil {
		t.Fatal(err)
	}
	// Drain via Cancel.
	itCancel := card(1)
	id, err := b.List("s", itCancel, 100, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Cancel(id); err != nil {
		t.Fatal(err)
	}
	// Drain via Step-driven expiry.
	itExpire := card(2)
	if _, err := b.List("s", itExpire, 100, sched); err != nil {
		t.Fatal(err)
	}
	if expired := stepN(b, 100); expired != 1 {
		t.Fatalf("expired = %d, want 1", expired)
	}

	if n := b.TypeCount(); n != 0 {
		t.Errorf("books map retains %d drained types, want 0", n)
	}

	// A partially drained book keeps its key.
	itHalf := card(3)
	b.List("s", itHalf, 100, sched)
	b.List("s", itHalf, 100, sched)
	if _, err := b.Buy("b", itHalf.Name, 1); err != nil {
		t.Fatal(err)
	}
	if n := b.TypeCount(); n != 1 {
		t.Errorf("books map has %d types, want 1", n)
	}
}
