package marketplace

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"rimarket/internal/pricing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func t2nano() pricing.InstanceType {
	// The paper's Section III.B example card.
	return pricing.InstanceType{
		Name:           "t2.nano",
		OnDemandHourly: 0.0059,
		Upfront:        18,
		ReservedHourly: 0.002,
		PeriodHours:    pricing.HoursPerYear,
	}
}

// flat is a single-entry schedule: the ask stays put until expiry.
func flat(remainingHours int, ask float64) PriceSchedule {
	return PriceSchedule{{Term: MonthsRemaining(remainingHours), Price: ask}}
}

func TestNewValidatesFee(t *testing.T) {
	if _, err := NewOrderBook(-0.1); err == nil {
		t.Error("negative fee accepted")
	}
	if _, err := NewOrderBook(1); err == nil {
		t.Error("fee of 1 accepted")
	}
	b := mustBook(t, 0)
	if b.fee != 0 {
		t.Errorf("fee = %v, want 0", b.fee)
	}
}

func TestPaperT2NanoSellingExample(t *testing.T) {
	// Section III.B: selling the remaining second half of a t2.nano
	// reservation. Cap = $9; at 20% off the ask is $7.20; the buyer pays
	// $7.20 and the seller receives $7.20 * (1 - 0.12) = $6.336.
	it := t2nano()
	b := mustBook(t, AmazonFee)
	half := it.PeriodHours / 2
	if got := ProratedCap(it, half); !almostEqual(got, 9, 1e-9) {
		t.Fatalf("ProratedCap = %v, want 9", got)
	}
	if _, err := b.ListDeclining("seller", it, half, 0.8); err != nil {
		t.Fatal(err)
	}
	trades, err := b.Buy("buyer", "t2.nano", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trades) != 1 {
		t.Fatalf("trades = %d, want 1", len(trades))
	}
	tr := trades[0]
	if !almostEqual(tr.PricePaid, 7.2, 1e-9) {
		t.Errorf("PricePaid = %v, want 7.2", tr.PricePaid)
	}
	if !almostEqual(tr.SellerProceeds, 6.336, 1e-9) {
		t.Errorf("SellerProceeds = %v, want 6.336", tr.SellerProceeds)
	}
	_, proceeds, fees := b.Totals()
	if !almostEqual(proceeds, 6.336, 1e-9) {
		t.Errorf("proceeds = %v, want 6.336", proceeds)
	}
	if !almostEqual(fees, 7.2*0.12, 1e-9) {
		t.Errorf("fees = %v, want %v", fees, 7.2*0.12)
	}
}

func TestListValidation(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	half := it.PeriodHours / 2
	tests := []struct {
		name      string
		seller    string
		remaining int
		ask       float64
	}{
		{name: "empty seller", seller: "", remaining: half, ask: 5},
		{name: "zero remaining", seller: "s", remaining: 0, ask: 5},
		{name: "full period remaining", seller: "s", remaining: it.PeriodHours, ask: 5},
		{name: "zero ask", seller: "s", remaining: half, ask: 0},
		{name: "ask above prorated cap", seller: "s", remaining: half, ask: 9.01},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := b.List(tt.seller, it, tt.remaining, flat(half, tt.ask)); err == nil {
				t.Error("List succeeded, want error")
			}
		})
	}
	if _, err := b.List("s", pricing.InstanceType{}, half, flat(half, 1)); err == nil {
		t.Error("invalid instance accepted")
	}
	if _, err := b.ListDeclining("s", it, half, 0); err == nil {
		t.Error("zero discount accepted")
	}
	if _, err := b.ListDeclining("s", it, half, 1.2); err == nil {
		t.Error("discount above 1 accepted")
	}
	if b.OpenCount() != 0 {
		t.Errorf("rejected listings left %d open", b.OpenCount())
	}
}

func TestBuyLowestUpfrontFirst(t *testing.T) {
	// The paper: "the marketplace sells the reserved instance with the
	// lowest upfront fee at first".
	it := t2nano()
	b := mustBook(t, AmazonFee)
	half := it.PeriodHours / 2
	for _, l := range []struct {
		seller string
		ask    float64
	}{{"expensive", 9}, {"cheap", 5}, {"middle", 7}} {
		if _, err := b.List(l.seller, it, half, flat(half, l.ask)); err != nil {
			t.Fatal(err)
		}
	}
	trades, err := b.Buy("buyer", "t2.nano", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(trades) != 2 {
		t.Fatalf("trades = %d, want 2", len(trades))
	}
	if trades[0].Seller != "cheap" || trades[1].Seller != "middle" {
		t.Errorf("sale order = %s, %s; want cheap, middle", trades[0].Seller, trades[1].Seller)
	}
	left := b.OpenBook("t2.nano")
	if len(left) != 1 || left[0].Seller != "expensive" {
		t.Errorf("open listings = %+v, want only expensive", left)
	}
}

func TestBuyEqualPriceFIFO(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	half := it.PeriodHours / 2
	for _, seller := range []string{"first", "second", "third"} {
		if _, err := b.List(seller, it, half, flat(half, 6)); err != nil {
			t.Fatal(err)
		}
	}
	trades, err := b.Buy("buyer", "t2.nano", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"first", "second", "third"} {
		if trades[i].Seller != want {
			t.Errorf("sale %d seller = %s, want %s", i, trades[i].Seller, want)
		}
	}
}

func TestBuyPartialFillAndErrors(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	if _, err := b.Buy("buyer", "t2.nano", 1); !errors.Is(err, ErrNoListings) {
		t.Errorf("err = %v, want ErrNoListings", err)
	}
	if _, err := b.Buy("", "t2.nano", 1); err == nil {
		t.Error("empty buyer accepted")
	}
	if _, err := b.Buy("b", "t2.nano", 0); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := b.List("s", it, 100, flat(100, 0.1)); err != nil {
		t.Fatal(err)
	}
	trades, err := b.Buy("buyer", "t2.nano", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(trades) != 1 {
		t.Errorf("partial fill = %d trades, want 1", len(trades))
	}
	// Book now empty again.
	if _, err := b.Buy("buyer", "t2.nano", 1); !errors.Is(err, ErrNoListings) {
		t.Errorf("err after drain = %v, want ErrNoListings", err)
	}
}

func TestCancel(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	id, err := b.List("s", it, 100, flat(100, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := b.Cancel(id); err == nil {
		t.Error("double cancel succeeded")
	}
	if got := b.OpenBook("t2.nano"); len(got) != 0 {
		t.Errorf("open listings after cancel = %d", len(got))
	}
}

func TestSalesLedgerCopies(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	if _, err := b.List("s", it, 100, flat(100, 0.1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Buy("b", "t2.nano", 1); err != nil {
		t.Fatal(err)
	}
	ledger := b.Trades()
	if len(ledger) != 1 {
		t.Fatalf("ledger = %d, want 1", len(ledger))
	}
	ledger[0].Buyer = "tampered"
	if b.Trades()[0].Buyer != "b" {
		t.Error("Trades ledger aliased internal state")
	}
}

func TestConcurrentListAndBuy(t *testing.T) {
	it := t2nano()
	b := mustBook(t, AmazonFee)
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.List("s", it, 100, flat(100, 0.1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	var bought int
	var mu sync.Mutex
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trades, err := b.Buy("b", "t2.nano", 5)
			if err != nil && !errors.Is(err, ErrNoListings) {
				t.Error(err)
				return
			}
			mu.Lock()
			bought += len(trades)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if bought != n {
		t.Errorf("bought = %d, want %d", bought, n)
	}
	if got := len(b.OpenBook("t2.nano")); got != 0 {
		t.Errorf("open listings = %d, want 0", got)
	}
}

// TestPropertyConservation: every dollar the buyers pay is split
// exactly between seller proceeds and marketplace fees, per trade and
// in the book's running totals.
func TestPropertyConservation(t *testing.T) {
	it := t2nano()
	f := func(asksRaw []uint8, feeSel uint8) bool {
		fee := float64(int(feeSel)%50) / 100 // [0, 0.49]
		b, err := NewOrderBook(fee)
		if err != nil {
			return false
		}
		cap := ProratedCap(it, 1000)
		for _, raw := range asksRaw {
			ask := cap * float64(int(raw)%100+1) / 100
			if _, err := b.List("s", it, 1000, flat(1000, ask)); err != nil {
				return false
			}
		}
		if len(asksRaw) == 0 {
			return true
		}
		trades, err := b.Buy("b", it.Name, len(asksRaw))
		if err != nil {
			return false
		}
		var paid, proceeds, fees float64
		for _, tr := range trades {
			if tr.PricePaid != tr.Fee+tr.SellerProceeds {
				return false
			}
			paid += tr.PricePaid
			proceeds += tr.SellerProceeds
			fees += tr.Fee
		}
		gotPaid, gotProceeds, gotFees := b.Totals()
		return gotPaid == paid && gotProceeds == proceeds && gotFees == fees
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBuyOrderMonotone: successive sale prices never decrease.
func TestPropertyBuyOrderMonotone(t *testing.T) {
	it := t2nano()
	f := func(asksRaw []uint8) bool {
		if len(asksRaw) == 0 {
			return true
		}
		b, err := NewOrderBook(AmazonFee)
		if err != nil {
			return false
		}
		cap := ProratedCap(it, 2000)
		for _, raw := range asksRaw {
			ask := cap * float64(int(raw)%100+1) / 100
			if _, err := b.List("s", it, 2000, flat(2000, ask)); err != nil {
				return false
			}
		}
		trades, err := b.Buy("b", it.Name, len(asksRaw))
		if err != nil {
			return false
		}
		for i := 1; i < len(trades); i++ {
			if trades[i].PricePaid < trades[i-1].PricePaid-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
