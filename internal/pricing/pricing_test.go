package pricing

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func validCard() InstanceType {
	return InstanceType{
		Name:           "test.large",
		OnDemandHourly: 0.5,
		Upfront:        1000,
		ReservedHourly: 0.125,
		PeriodHours:    HoursPerYear,
	}
}

func TestPaymentOptionString(t *testing.T) {
	tests := []struct {
		opt  PaymentOption
		want string
	}{
		{NoUpfront, "No Upfront"},
		{PartialUpfront, "Partial Upfront"},
		{AllUpfront, "All Upfront"},
		{OnDemand, "On-Demand"},
		{PaymentOption(0), "PaymentOption(0)"},
		{PaymentOption(99), "PaymentOption(99)"},
	}
	for _, tt := range tests {
		if got := tt.opt.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.opt), got, tt.want)
		}
	}
}

func TestInstanceTypeValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*InstanceType)
		wantOK bool
	}{
		{name: "valid", mutate: func(*InstanceType) {}, wantOK: true},
		{name: "no name", mutate: func(it *InstanceType) { it.Name = "" }},
		{name: "zero on-demand", mutate: func(it *InstanceType) { it.OnDemandHourly = 0 }},
		{name: "negative on-demand", mutate: func(it *InstanceType) { it.OnDemandHourly = -1 }},
		{name: "zero upfront", mutate: func(it *InstanceType) { it.Upfront = 0 }},
		{name: "negative reserved", mutate: func(it *InstanceType) { it.ReservedHourly = -0.1 }},
		{name: "reserved not cheaper", mutate: func(it *InstanceType) { it.ReservedHourly = it.OnDemandHourly }},
		{name: "zero period", mutate: func(it *InstanceType) { it.PeriodHours = 0 }},
		{name: "infinite on-demand", mutate: func(it *InstanceType) { it.OnDemandHourly = math.Inf(1) }},
		{name: "NaN on-demand", mutate: func(it *InstanceType) { it.OnDemandHourly = math.NaN() }},
		{name: "infinite upfront", mutate: func(it *InstanceType) { it.Upfront = math.Inf(1) }},
		{name: "NaN reserved", mutate: func(it *InstanceType) { it.ReservedHourly = math.NaN() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			it := validCard()
			tt.mutate(&it)
			err := it.Validate()
			if tt.wantOK && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tt.wantOK && err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestAlphaTheta(t *testing.T) {
	it := validCard()
	if got := it.Alpha(); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("Alpha = %v, want 0.25", got)
	}
	// theta = 0.5 * 8760 / 1000 = 4.38
	if got := it.Theta(); !almostEqual(got, 4.38, 1e-9) {
		t.Errorf("Theta = %v, want 4.38", got)
	}
}

func TestPaperT2NanoExample(t *testing.T) {
	// Section III.A: t2.nano alpha = 0.002/0.0059 ≈ 0.34.
	cat := StandardLinuxUSEast()
	it, err := cat.Lookup("t2.nano")
	if err != nil {
		t.Fatal(err)
	}
	if got := it.Alpha(); !almostEqual(got, 0.34, 0.01) {
		t.Errorf("t2.nano Alpha = %v, want ~0.34", got)
	}
	// Section III.A: 1000 reserved hours cost R + alpha*p*1000 = $20.
	cost := it.Upfront + it.ReservedHourly*1000
	if !almostEqual(cost, 20, 0.01) {
		t.Errorf("t2.nano 1000h reserved cost = %v, want $20", cost)
	}
}

func TestBreakEvenHours(t *testing.T) {
	it := D2XLarge()
	alpha := it.Alpha()
	// beta_{3/4} = (3/4)*a*R / (p*(1-alpha)) per Eq. (9).
	a := 0.8
	want := 0.75 * a * it.Upfront / (it.OnDemandHourly * (1 - alpha))
	if got := it.BreakEvenHours(0.75, a); !almostEqual(got, want, 1e-9) {
		t.Errorf("BreakEvenHours = %v, want %v", got, want)
	}
	// Break-even scales linearly in both k and a.
	if got := it.BreakEvenHours(0.375, a); !almostEqual(got, want/2, 1e-9) {
		t.Errorf("half-k BreakEvenHours = %v, want %v", got, want/2)
	}
	if got := it.BreakEvenHours(0.75, a/2); !almostEqual(got, want/2, 1e-9) {
		t.Errorf("half-a BreakEvenHours = %v, want %v", got, want/2)
	}
}

func TestTableIPricingD2XLarge(t *testing.T) {
	// Table I of the paper, d2.xlarge (US East, Linux), Jan 1 2018.
	plans := D2XLarge().Plans()
	if len(plans) != 4 {
		t.Fatalf("len(Plans) = %d, want 4", len(plans))
	}
	byOption := make(map[PaymentOption]Plan, len(plans))
	for _, p := range plans {
		byOption[p.Option] = p
	}

	no := byOption[NoUpfront]
	if no.Upfront != 0 {
		t.Errorf("NoUpfront.Upfront = %v, want 0", no.Upfront)
	}
	if !almostEqual(no.Monthly, 293.46, 1.0) {
		t.Errorf("NoUpfront.Monthly = %v, want ~293.46", no.Monthly)
	}
	if !almostEqual(no.Hourly, 0.402, 0.002) {
		t.Errorf("NoUpfront.Hourly = %v, want ~0.402", no.Hourly)
	}

	partial := byOption[PartialUpfront]
	if partial.Upfront != 1506 {
		t.Errorf("PartialUpfront.Upfront = %v, want 1506", partial.Upfront)
	}
	if !almostEqual(partial.Monthly, 125.56, 0.1) {
		t.Errorf("PartialUpfront.Monthly = %v, want ~125.56", partial.Monthly)
	}
	if !almostEqual(partial.Hourly, 0.344, 0.001) {
		t.Errorf("PartialUpfront.Hourly = %v, want ~0.344", partial.Hourly)
	}

	all := byOption[AllUpfront]
	if !almostEqual(all.Upfront, 2952, 3) {
		t.Errorf("AllUpfront.Upfront = %v, want ~2952", all.Upfront)
	}
	if all.Monthly != 0 {
		t.Errorf("AllUpfront.Monthly = %v, want 0", all.Monthly)
	}
	if !almostEqual(all.Hourly, 0.337, 0.001) {
		t.Errorf("AllUpfront.Hourly = %v, want ~0.337", all.Hourly)
	}

	od := byOption[OnDemand]
	if !almostEqual(od.Hourly, 0.69, 1e-9) {
		t.Errorf("OnDemand.Hourly = %v, want 0.69", od.Hourly)
	}
}

func TestCatalogPaperInvariants(t *testing.T) {
	// Section IV.C: alpha < 0.36 and theta in (1, 4) for all standard
	// 1-year Linux US-East instances (d2's theta is 4.01 ≈ 4).
	cat := StandardLinuxUSEast()
	if cat.Len() < 30 {
		t.Fatalf("catalog has %d types, want >= 30 for a representative population", cat.Len())
	}
	s := cat.Stats()
	if s.AlphaMax >= 0.36 {
		t.Errorf("AlphaMax = %v, want < 0.36 (paper's measured bound)", s.AlphaMax)
	}
	if s.ThetaMin <= 1 {
		t.Errorf("ThetaMin = %v, want > 1", s.ThetaMin)
	}
	if s.ThetaMax > 4.05 {
		t.Errorf("ThetaMax = %v, want <= ~4 (paper's measured bound)", s.ThetaMax)
	}
	// d2.xlarge's documented discount is 0.25 (Section VI.A).
	d2 := D2XLarge()
	if got := d2.Alpha(); !almostEqual(got, 0.25, 0.001) {
		t.Errorf("d2.xlarge Alpha = %v, want 0.25", got)
	}
}

func TestCatalogEveryEntryValid(t *testing.T) {
	for _, it := range StandardLinuxUSEast().All() {
		if err := it.Validate(); err != nil {
			t.Errorf("catalog entry %s invalid: %v", it.Name, err)
		}
	}
}

func TestNewCatalogRejectsBadInput(t *testing.T) {
	bad := validCard()
	bad.OnDemandHourly = -1
	if _, err := NewCatalog([]InstanceType{bad}); err == nil {
		t.Error("NewCatalog accepted an invalid card")
	}
	ok := validCard()
	if _, err := NewCatalog([]InstanceType{ok, ok}); err == nil {
		t.Error("NewCatalog accepted a duplicate name")
	}
}

func TestCatalogLookupAndNames(t *testing.T) {
	cat := StandardLinuxUSEast()
	if _, err := cat.Lookup("nope.2xlarge"); err == nil {
		t.Error("Lookup of unknown type succeeded")
	}
	names := cat.Names()
	if len(names) != cat.Len() {
		t.Fatalf("len(Names) = %d, want %d", len(names), cat.Len())
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
	if !strings.Contains(strings.Join(names, ","), "d2.xlarge") {
		t.Error("d2.xlarge missing from Names")
	}
}

func TestEmptyCatalogStats(t *testing.T) {
	c, err := NewCatalog(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("empty catalog Stats = %+v, want zero", s)
	}
}

func TestPropertyBreakEvenBelowWindow(t *testing.T) {
	// For any plausible card and parameters, the break-even working time
	// must be positive and, whenever theta*a <= 4/3 (which holds for all
	// catalog entries with a <= 1 since beta_k = k*a*theta*T/(theta*(1-alpha))
	// ... ), simply: 0 < beta_k. Also beta is monotone in a and k.
	f := func(rawAlpha, rawA, rawK float64) bool {
		alpha := 0.05 + math.Mod(math.Abs(rawAlpha), 0.30) // (0.05, 0.35)
		a := math.Mod(math.Abs(rawA), 1.0)                 // [0, 1)
		k := 0.1 + math.Mod(math.Abs(rawK), 0.8)           // (0.1, 0.9)
		it := InstanceType{
			Name:           "prop.large",
			OnDemandHourly: 0.5,
			Upfront:        1000,
			ReservedHourly: 0.5 * alpha,
			PeriodHours:    HoursPerYear,
		}
		beta := it.BreakEvenHours(k, a)
		if beta < 0 {
			return false
		}
		// Monotone in both arguments.
		if it.BreakEvenHours(k+0.05, a) < beta {
			return false
		}
		return it.BreakEvenHours(k, a+1e-3) >= beta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFullPeriodReservedCost(t *testing.T) {
	it := D2XLarge()
	want := 1506 + 0.172*float64(HoursPerYear)
	if got := it.FullPeriodReservedCost(); !almostEqual(got, want, 1e-9) {
		t.Errorf("FullPeriodReservedCost = %v, want %v", got, want)
	}
}

func TestCatalogFilterAndFamily(t *testing.T) {
	cat := StandardLinuxUSEast()
	d2 := cat.Family("d2")
	if d2.Len() != 4 {
		t.Errorf("d2 family = %d types, want 4", d2.Len())
	}
	for _, name := range d2.Names() {
		if !strings.HasPrefix(name, "d2.") {
			t.Errorf("unexpected member %q", name)
		}
	}
	cheap := cat.Filter(func(it InstanceType) bool { return it.Upfront < 100 })
	if cheap.Len() == 0 || cheap.Len() >= cat.Len() {
		t.Errorf("cheap filter = %d of %d", cheap.Len(), cat.Len())
	}
	// Family with no dot-sibling match is empty (no prefix confusion:
	// "d" must not match "d2.*").
	if got := cat.Family("d").Len(); got != 0 {
		t.Errorf("Family(d) = %d, want 0", got)
	}
}
