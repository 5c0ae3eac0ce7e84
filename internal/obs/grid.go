package obs

import "sync/atomic"

// GridTracker follows one RunGrid fan-out: per-cell job counts and
// engine time, cell completion, and the wall time from grid start to
// each cell finishing. JobDone is called from pool workers, so the
// per-cell state is atomic; a cell "completes" when its last job
// lands, whichever worker that is. A nil tracker (observability off)
// accepts every call and records nothing.
type GridTracker struct {
	m     *Metrics
	start int64 // grid start, UnixNano of the metrics clock
	cells []cellTrack
	done  atomic.Bool
}

type cellTrack struct {
	name      string
	remaining atomic.Int64
	jobs      atomic.Int64
	engineNs  atomic.Int64
	wallNs    atomic.Int64
	// resumed is set before the pool starts (single-goroutine prefill)
	// and read after it joins, so it needs no atomic.
	resumed bool
}

// StartGrid begins tracking a grid of len(names) cells with
// usersPerCell jobs each, booking the cell totals on m. Returns nil
// when m is nil.
func (m *Metrics) StartGrid(names []string, usersPerCell int) *GridTracker {
	if m == nil {
		return nil
	}
	m.CellsTotal.Add(int64(len(names)))
	t := &GridTracker{m: m, start: m.Now().UnixNano(), cells: make([]cellTrack, len(names))}
	for i, name := range names {
		t.cells[i].name = name
		t.cells[i].remaining.Store(int64(usersPerCell))
	}
	return t
}

// CellResumed marks one cell as restored from a spill store: none of
// its jobs will run, it books no engine time, and the manifest reports
// it as resumed rather than computed. Called during the single-threaded
// resume prefill, before any JobDone.
func (t *GridTracker) CellResumed(cell int) {
	if t == nil {
		return
	}
	c := &t.cells[cell]
	c.resumed = true
	c.remaining.Store(0)
	t.m.CellsResumed.Add(1)
}

// JobDone books one completed (cell, user) job that spent engineNs in
// the engine. When the cell's last job lands, the cell is marked done
// and its wall time (grid start to now) is captured.
func (t *GridTracker) JobDone(cell int, engineNs int64) {
	if t == nil {
		return
	}
	c := &t.cells[cell]
	c.jobs.Add(1)
	c.engineNs.Add(engineNs)
	if c.remaining.Add(-1) == 0 {
		c.wallNs.Store(t.m.Now().UnixNano() - t.start)
		t.m.CellsDone.Add(1)
	}
}

// Finish flushes the grid's per-cell stats into the metrics, including
// cells that never completed (a cancelled grid records the partial job
// counts it did finish, with WallNs zero). Idempotent, so it can be
// deferred and still guarded against double RunGrid exits.
func (t *GridTracker) Finish() {
	if t == nil || !t.done.CompareAndSwap(false, true) {
		return
	}
	stats := make([]CellStat, len(t.cells))
	for i := range t.cells {
		c := &t.cells[i]
		stats[i] = CellStat{
			Name:     c.name,
			Jobs:     c.jobs.Load(),
			EngineNs: c.engineNs.Load(),
			WallNs:   c.wallNs.Load(),
			Resumed:  c.resumed,
		}
	}
	t.m.recordCells(stats)
}
