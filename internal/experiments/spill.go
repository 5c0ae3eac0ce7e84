package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"

	"rimarket/internal/gridstore"
	"rimarket/internal/obs"
	"rimarket/internal/pricing"
)

// This file wires RunGrid to the gridstore spill/resume store: the
// grid's canonical identity (the config hash resume validates), the
// label → subdirectory mapping, and the per-cell append/prefill glue.

// gridIdentity is the canonical, JSON-stable identity of one grid:
// everything that determines its results and nothing that does not.
// Parallelism, SpillDir and Resume are deliberately absent — a grid
// interrupted at one worker count must resume at another — as are the
// engine's non-semantic knobs (Metrics, RecordSchedules), which the
// zero-perturbation suite pins as result-neutral.
type gridIdentity struct {
	Grid     string               `json:"grid"`
	Instance pricing.InstanceType `json:"instance"`
	PerGroup int                  `json:"per_group"`
	Hours    int                  `json:"hours"`
	Seed     int64                `json:"seed"`
	Users    int                  `json:"users"`
	// Inputs digests a trace-backed plan's users; empty, and absent
	// from the hash, for a synthetic cohort (see inputsDigest).
	Inputs string             `json:"inputs,omitempty"`
	Cells  []gridCellIdentity `json:"cells"`
}

// gridCellIdentity is one cell's semantic engine parameters. The
// policy itself is not hashable (it is code), but every cell name in
// this package encodes the policy and its parameters, so Name plus
// the engine config pins the cell.
type gridCellIdentity struct {
	Name            string               `json:"name"`
	Instance        pricing.InstanceType `json:"instance"`
	SellingDiscount float64              `json:"selling_discount"`
	MarketFee       float64              `json:"market_fee"`
}

// gridSpec derives the gridstore spec binding a spill directory to
// this exact grid: config hash over the grid's identity (inputs is the
// plan's inputsDigest), the cohort seed, and the result shape.
func gridSpec(cfg Config, name string, cells []Cell, users int, inputs string) (gridstore.Spec, error) {
	id := gridIdentity{
		Grid:     name,
		Instance: cfg.Instance,
		PerGroup: cfg.PerGroup,
		Hours:    cfg.Hours,
		Seed:     cfg.Seed,
		Users:    users,
		Inputs:   inputs,
		Cells:    make([]gridCellIdentity, 0, len(cells)),
	}
	names := make([]string, 0, len(cells))
	for _, c := range cells {
		id.Cells = append(id.Cells, gridCellIdentity{
			Name:            c.Name,
			Instance:        c.Engine.Instance,
			SellingDiscount: c.Engine.SellingDiscount,
			MarketFee:       c.Engine.MarketFee,
		})
		names = append(names, c.Name)
	}
	raw, err := json.Marshal(id)
	if err != nil {
		return gridstore.Spec{}, fmt.Errorf("experiments: encoding grid identity: %w", err)
	}
	sum := sha256.Sum256(raw)
	return gridstore.Spec{
		Version:    gridstore.FormatVersion,
		ConfigHash: hex.EncodeToString(sum[:]),
		Seed:       cfg.Seed,
		Cells:      names,
		Users:      users,
	}, nil
}

// inputsDigest is a SHA-256 over a trace-backed plan's users, each
// user's name and fitted demand in plan order, so a spill store never
// resumes against different traces of the same size. It is "" for a
// synthetic cohort, which Seed, PerGroup and Hours already pin. Only
// spilling grids ask for it, once per plan.
func (p *CohortPlan) inputsDigest() string {
	if !p.traced {
		return ""
	}
	p.digestOnce.Do(func() {
		h := sha256.New()
		var buf []byte
		for _, u := range p.users {
			buf = binary.AppendUvarint(buf[:0], uint64(len(u.Trace.User)))
			buf = append(buf, u.Trace.User...)
			buf = binary.AppendUvarint(buf, uint64(len(u.Trace.Demand)))
			for _, d := range u.Trace.Demand {
				buf = binary.AppendUvarint(buf, uint64(d))
			}
			h.Write(buf)
		}
		p.digest = hex.EncodeToString(h.Sum(nil))
	})
	return p.digest
}

// spillDirName maps a grid label to its subdirectory under
// Config.SpillDir. Labels are fixed identifiers in this package, but
// sanitize anyway so a label can never escape the spill root.
func spillDirName(label string) string {
	if label == "" {
		return "grid"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, label)
}

// gridSpill is one RunGrid invocation's spill state: the open store,
// and which cells were restored from disk rather than scheduled.
type gridSpill struct {
	store   *gridstore.Store
	dir     string
	resumed []bool
}

// openSpill opens the grid's store under SpillDir/<label>. With
// Config.Resume set it loads valid spilled cells into out and marks
// them resumed on the tracker; otherwise (or when there is nothing to
// resume) it creates a fresh store. Dropped records — torn tails,
// checksum failures, duplicates — leave their cells pending, so they
// are recomputed, never merged.
func (p *CohortPlan) openSpill(name string, cells []Cell, users int, out []CellResult, tracker *obs.GridTracker) (*gridSpill, error) {
	spec, err := gridSpec(p.cfg, name, cells, users, p.inputsDigest())
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(p.cfg.SpillDir, spillDirName(name))
	g := &gridSpill{dir: dir, resumed: make([]bool, len(cells))}
	if p.cfg.Resume {
		store, loaded, err := gridstore.Open(dir, spec)
		switch {
		case err == nil:
			g.store = store
			for idx, rec := range loaded.Cells {
				out[idx] = CellResult{Name: rec.Name, Cost: rec.Cost, Norm: rec.Norm, Sold: rec.Sold}
				g.resumed[idx] = true
				tracker.CellResumed(idx)
			}
			return g, nil
		case errors.Is(err, fs.ErrNotExist):
			// Nothing spilled yet; start a fresh store below.
		default:
			return nil, fmt.Errorf("experiments: resuming grid %q from %s: %w", name, dir, err)
		}
	}
	store, err := gridstore.Create(dir, spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: opening spill store for grid %q: %w", name, err)
	}
	g.store = store
	return g, nil
}

// appendCell spills one fully-completed cell to the claiming worker's
// shard. An append failure surfaces through the pool's error path like
// any job error: the sweep stops rather than silently losing
// resumability.
func (g *gridSpill) appendCell(worker, ci int, cell *CellResult) error {
	err := g.store.Append(worker, gridstore.CellRecord{
		Index: ci,
		Name:  cell.Name,
		Cost:  cell.Cost,
		Norm:  cell.Norm,
		Sold:  cell.Sold,
	})
	if err != nil {
		return fmt.Errorf("experiments: spilling cell %s: %w", cell.Name, err)
	}
	return nil
}

// close flushes and closes the store. Nil-safe, so RunGrid's no-spill
// path needs no branches.
func (g *gridSpill) close() error {
	if g == nil || g.store == nil {
		return nil
	}
	err := g.store.Close()
	g.store = nil
	if err != nil {
		return fmt.Errorf("experiments: closing spill store: %w", err)
	}
	return nil
}
