package experiments

// TestGridGolden pins every grid the drivers run — cohort, the three
// sweeps, sensitivity, extensions and resell — bit for bit: one line
// per (setup, grid) with a SHA-256 over the cell names and the float
// bits of every user's Cost, Norm and Sold, and one line per price card
// over the Keep-Reserved baselines. Rendered tables round to four
// decimals, so only a bit pin catches a reordered float add.
// Regenerate after an intentional change with:
//
//	go test ./internal/experiments -run TestGridGolden -update

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rimarket/internal/core"
	"rimarket/internal/pricing"
)

// gridGoldenAxes are riexp's axes for the swept grids.
var (
	goldenKs     = []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875}
	goldenAs     = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	goldenFees   = []float64{0, 0.06, 0.12, 0.24}
	goldenSensAs = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	goldenSensKs = []float64{0.125, 0.25, 0.5, 0.75, 0.875}
)

// gridDigester accumulates a SHA-256 over names and value bits.
type gridDigester struct {
	h   [32]byte
	buf []byte
}

func (d *gridDigester) str(s string) { d.buf = append(append(d.buf, s...), 0) }
func (d *gridDigester) int(v int)    { d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(int64(v))) }
func (d *gridDigester) float(v float64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
}
func (d *gridDigester) sum() string { return fmt.Sprintf("%x", sha256.Sum256(d.buf)) }

// cellsDigest hashes a grid's results.
func cellsDigest(grid []CellResult) string {
	var d gridDigester
	for _, c := range grid {
		d.str(c.Name)
		d.int(len(c.Cost))
		for i := range c.Cost {
			d.float(c.Cost[i])
			d.float(c.Norm[i])
			d.int(c.Sold[i])
		}
	}
	return d.sum()
}

// keepDigest hashes a card's Keep-Reserved baselines.
func keepDigest(keeps []KeepStat) string {
	var d gridDigester
	for _, k := range keeps {
		d.float(k.Total)
		d.int(k.IdleHours)
	}
	return d.sum()
}

// driverGrids returns the cells of every driver's grid on p, in the
// order riexp runs them.
func driverGrids(t *testing.T, p *CohortPlan) []struct {
	name  string
	cells []Cell
} {
	t.Helper()
	type grid = struct {
		name  string
		cells []Cell
	}
	var out []grid
	add := func(name string, cells []Cell, err error) {
		if err != nil {
			t.Fatalf("%s cells: %v", name, err)
		}
		out = append(out, grid{name, cells})
	}
	cells, err := p.cohortCells()
	add("cohort", cells, err)
	cells, err = p.fractionCells(goldenKs)
	add("sweep-k", cells, err)
	cells, err = p.discountCells(goldenAs)
	add("sweep-a", cells, err)
	cells, err = p.feeCells(goldenFees)
	add("sweep-fee", cells, err)
	cells, err = p.sensitivityCells(goldenSensAs, goldenSensKs)
	add("sensitivity", cells, err)
	cells, err = p.extensionCells()
	add("extensions", cells, err)
	cells, err = p.resellCells()
	add("resell", cells, err)
	return out
}

// twoCardCells is one grid over two price cards — A_{3T/4} and A_{T/4}
// on d2.xlarge and on m4.large, both scaled like the test cohort — so
// the grid resolves one Keep-Reserved baseline per card.
func twoCardCells(t *testing.T, p *CohortPlan) ([]Cell, []pricing.InstanceType) {
	t.Helper()
	m4, err := pricing.StandardLinuxUSEast().Lookup("m4.large")
	if err != nil {
		t.Fatal(err)
	}
	m4.PeriodHours = p.cfg.Instance.PeriodHours
	m4.Upfront /= 6
	cards := []pricing.InstanceType{p.cfg.Instance, m4}
	var cells []Cell
	for _, card := range cards {
		a3, err := core.NewA3T4(card, p.cfg.SellingDiscount)
		if err != nil {
			t.Fatal(err)
		}
		a4, err := core.NewAT4(card, p.cfg.SellingDiscount)
		if err != nil {
			t.Fatal(err)
		}
		eng := p.engineConfig()
		eng.Instance = card
		cells = append(cells,
			Cell{Name: card.Name + " " + PolicyA3T4, Policy: a3, Engine: eng},
			Cell{Name: card.Name + " " + PolicyAT4, Policy: a4, Engine: eng})
	}
	return cells, cards
}

func TestGridGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every grid at paper scale; skipped in -short mode")
	}
	ctx := context.Background()
	var out strings.Builder
	line := func(setup, what string, cells, users int, sum string) {
		fmt.Fprintf(&out, "%s %s cells=%d users=%d sha256=%s\n", setup, what, cells, users, sum)
	}
	keepLine := func(setup string, p *CohortPlan, card pricing.InstanceType) {
		eng := p.engineConfig()
		eng.Instance = card
		keeps, err := p.KeepStats(ctx, eng)
		if err != nil {
			t.Fatalf("%s keep %s: %v", setup, card.Name, err)
		}
		line(setup, "keep["+card.Name+"]", 0, len(keeps), keepDigest(keeps))
	}
	for _, setup := range []struct {
		name string
		cfg  Config
	}{
		{"test-scale", TestScaleConfig()},
		{"default", DefaultConfig()},
	} {
		p, err := NewCohortPlan(ctx, setup.cfg)
		if err != nil {
			t.Fatalf("%s: %v", setup.name, err)
		}
		for _, g := range driverGrids(t, p) {
			grid, err := p.RunGridNamed(ctx, g.name, g.cells)
			if err != nil {
				t.Fatalf("%s %s: %v", setup.name, g.name, err)
			}
			line(setup.name, g.name, len(grid), p.Len(), cellsDigest(grid))
		}
		keepLine(setup.name, p, p.cfg.Instance)
	}

	p, err := NewCohortPlan(ctx, TestScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	cells, cards := twoCardCells(t, p)
	grid, err := p.RunGrid(ctx, cells)
	if err != nil {
		t.Fatalf("two-card: %v", err)
	}
	line("two-card", "grid", len(grid), p.Len(), cellsDigest(grid))
	for _, card := range cards {
		keepLine("two-card", p, card)
	}

	path := filepath.Join("testdata", "grid.golden")
	if *update {
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
		t.Errorf("grids differ from %s (run with -update after intentional changes)\n--- want\n%s--- got\n%s",
			path, want, got)
	}
}
