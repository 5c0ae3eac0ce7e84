package experiments

// TestPlanGolden pins the cold cohort plan — synthesis, classification
// and the four purchasing imitators — byte for byte: one line per
// config with the user count and a SHA-256 over every user's demand,
// behavior, reservation series, reserved total and the bits of its
// fluctuation ratio and group. Regenerate after an intentional change
// with:
//
//	go test ./internal/experiments -run TestPlanGolden -update

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rimarket/internal/pricing"
	"rimarket/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// planGoldenConfigs lists the pinned plans: the test and paper scales,
// the 3-year card at test scale (as riexp -term 3 builds it), and a
// two-period cohort like RatioAudit's, the one production shape where
// Wang windows expire and reservations lapse inside the horizon.
func planGoldenConfigs(t *testing.T) []struct {
	name string
	cfg  Config
} {
	three, err := pricing.ThreeYearTerm(pricing.D2XLarge())
	if err != nil {
		t.Fatal(err)
	}
	three.PeriodHours /= 6
	three.Upfront /= 6
	threeCfg := TestScaleConfig()
	threeCfg.Instance = three
	threeCfg.Hours = three.PeriodHours

	twoPeriod := TestScaleConfig()
	twoPeriod.Hours = 2 * twoPeriod.Instance.PeriodHours

	return []struct {
		name string
		cfg  Config
	}{
		{"test-scale", TestScaleConfig()},
		{"default", DefaultConfig()},
		{"test-scale-3y", threeCfg},
		{"test-scale-two-period", twoPeriod},
	}
}

// planDigest hashes everything a cold plan produces.
func planDigest(p *CohortPlan) string {
	h := sha256.New()
	var buf [8]byte
	putInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	for _, u := range p.Users() {
		putInt(len(u.Trace.Demand))
		for _, d := range u.Trace.Demand {
			putInt(d)
		}
		h.Write([]byte(u.Behavior))
		h.Write([]byte{0})
		putInt(len(u.NewRes))
		for _, n := range u.NewRes {
			putInt(n)
		}
		putInt(u.Reserved)
		putInt(int(workload.Classify(u.Trace)))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(u.Trace.FluctuationRatio()))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestPlanGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("plans the paper-scale cohort; skipped in -short mode")
	}
	var out strings.Builder
	for _, tc := range planGoldenConfigs(t) {
		p, err := NewCohortPlan(context.Background(), tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&out, "%s users=%d sha256=%s\n", tc.name, p.Len(), planDigest(p))
	}
	path := filepath.Join("testdata", "plan.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("plan differs from %s (run with -update after intentional changes)\n--- want\n%s--- got\n%s",
			path, want, got)
	}
}
