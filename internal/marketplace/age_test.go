package marketplace

import (
	"testing"
	"testing/quick"
)

// stepN advances the book n hours and returns how many listings
// expired on the way.
func stepN(b *OrderBook, n int) (expired int) {
	for i := 0; i < n; i++ {
		expired += len(b.Step().Expired)
	}
	return expired
}

func TestAdvanceShrinksAndRecaps(t *testing.T) {
	it := t2nano() // R=18, T=8760
	b := mustBook(t, AmazonFee)
	half := it.PeriodHours / 2
	// Ask exactly at the cap: after aging, the fill price must follow
	// the new lower cap.
	if _, err := b.ListDeclining("s", it, half, 1); err != nil {
		t.Fatal(err)
	}
	if expired := stepN(b, it.PeriodHours/4); expired != 0 {
		t.Fatalf("expired = %d, want 0", expired)
	}
	open := b.OpenBook(it.Name)
	if len(open) != 1 {
		t.Fatalf("open = %d", len(open))
	}
	wantRem := half - it.PeriodHours/4
	if got := open[0].RemainingAt(b.Now()); got != wantRem {
		t.Errorf("remaining = %d, want %d", got, wantRem)
	}
	trades, err := b.Buy("b", it.Name, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wantCap := ProratedCap(it, wantRem); !almostEqual(trades[0].PricePaid, wantCap, 1e-9) {
		t.Errorf("price paid = %v, want re-capped %v", trades[0].PricePaid, wantCap)
	}
}

func TestAdvanceKeepsDiscountedAsk(t *testing.T) {
	// An ask already below the shrinking cap is untouched.
	it := t2nano()
	b := mustBook(t, AmazonFee)
	half := it.PeriodHours / 2
	if _, err := b.List("s", it, half, flat(half, 1.0)); err != nil {
		t.Fatal(err)
	}
	stepN(b, 100)
	if got := b.OpenBook(it.Name)[0].EffectiveAsk; got != 1.0 {
		t.Errorf("ask = %v, want unchanged 1.0", got)
	}
	trades, err := b.Buy("b", it.Name, 1)
	if err != nil {
		t.Fatal(err)
	}
	if trades[0].PricePaid != 1.0 {
		t.Errorf("price paid = %v, want 1.0", trades[0].PricePaid)
	}
}

func TestAdvanceExpires(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	if _, err := b.List("short", it, 100, flat(100, 0.1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.List("long", it, 5000, flat(5000, 0.1)); err != nil {
		t.Fatal(err)
	}
	if expired := stepN(b, 100); expired != 1 {
		t.Fatalf("expired = %d, want 1", expired)
	}
	open := b.OpenBook(it.Name)
	if len(open) != 1 || open[0].Seller != "long" {
		t.Errorf("open = %+v", open)
	}
	if b.OpenCount() != 1 || b.ExpiredCount() != 1 {
		t.Errorf("OpenCount = %d, ExpiredCount = %d", b.OpenCount(), b.ExpiredCount())
	}
	// The expired listing can no longer be cancelled.
	if err := b.Cancel(1); err == nil {
		t.Error("cancel of expired listing succeeded")
	}
}

// TestAdvancePreservesBookOrder: both listings step down their
// declining schedules at the same month boundary, and the cheaper one
// still sells first afterwards.
func TestAdvancePreservesBookOrder(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	if _, err := b.ListDeclining("cheap", it, 4000, 0.25); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ListDeclining("dear", it, 4000, 0.95); err != nil {
		t.Fatal(err)
	}
	before := b.OpenBook(it.Name)
	stepN(b, 500) // 4000 h = month 6 remaining; 3500 h = month 5
	after := b.OpenBook(it.Name)
	for i := range after {
		if after[i].EffectiveAsk >= before[i].EffectiveAsk {
			t.Errorf("%s: ask %v did not step down from %v", after[i].Seller, after[i].EffectiveAsk, before[i].EffectiveAsk)
		}
	}
	trades, err := b.Buy("b", it.Name, 2)
	if err != nil {
		t.Fatal(err)
	}
	if trades[0].Seller != "cheap" || trades[1].Seller != "dear" {
		t.Errorf("order after aging = %s, %s", trades[0].Seller, trades[1].Seller)
	}
}

// TestPropertyAdvanceInvariants: after any sequence of steps, every
// open listing has positive remaining hours, OpenCount matches the
// book, and a fill never pays above the prorated cap.
func TestPropertyAdvanceInvariants(t *testing.T) {
	it := t2nano()
	f := func(remsRaw []uint16, steps []uint8) bool {
		b, err := NewOrderBook(AmazonFee)
		if err != nil {
			return false
		}
		for _, raw := range remsRaw {
			rem := int(raw)%(it.PeriodHours-1) + 1
			if _, err := b.ListDeclining("s", it, rem, 0.9); err != nil {
				return false
			}
		}
		for _, s := range steps {
			stepN(b, int(s)*10)
		}
		open := b.OpenBook(it.Name)
		if len(open) != b.OpenCount() {
			return false
		}
		for _, l := range open {
			if l.RemainingAt(b.Now()) <= 0 {
				return false
			}
		}
		if len(open) == 0 {
			return true
		}
		trades, err := b.Buy("b", it.Name, len(open))
		if err != nil {
			return false
		}
		for _, tr := range trades {
			if tr.RemainingHours <= 0 || tr.PricePaid > ProratedCap(it, tr.RemainingHours) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
