package obs

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// ManifestSchema versions the manifest JSON layout. Bump on any
// field rename or semantic change so downstream tooling can dispatch.
// Schema 4 added the metrics snapshot's serving section (requests,
// shed, timeouts, panics, reloads, request latency) written by the rid
// recommendation daemon. Schema 5 added the market section (listings,
// trades, expiries, buyer demand, time-to-sale) written by the
// two-sided marketplace session. Schema 6 dropped the
// engine_batch_runs and engine_batch_users counters with the batch
// engine they counted.
const ManifestSchema = 6

// Manifest records the provenance of one binary invocation: what ran,
// with which flags and seed, against which traces, on which build, for
// how long, and what it counted. Serialized with MarshalIndent and
// fixed field order, a manifest of a deterministic run differs across
// machines only in the environment-dependent fields (timestamps,
// durations, build info, memory) — the golden test normalizes exactly
// those.
type Manifest struct {
	Schema int      `json:"schema"`
	Tool   string   `json:"tool"`
	Args   []string `json:"args"`

	GoVersion   string `json:"go_version,omitempty"`
	GitRevision string `json:"git_revision,omitempty"`
	GitModified bool   `json:"git_modified,omitempty"`

	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	WallNs int64     `json:"wall_ns"`

	// Seed and Config are filled by the tool: Seed is the experiment
	// seed when one applies, Config the tool's parsed parameters
	// (any JSON-marshalable struct; riexp uses its flag set).
	Seed   int64 `json:"seed,omitempty"`
	Config any   `json:"config,omitempty"`

	// Trace summarizes trace ingestion when the tool loaded traces.
	Trace *TraceIngest `json:"trace,omitempty"`

	Outcome Outcome `json:"outcome"`

	Metrics *Snapshot    `json:"metrics,omitempty"`
	Mem     *MemSnapshot `json:"mem,omitempty"`
}

// TraceIngest mirrors gtrace.LoadReport without importing it (obs
// stays dependency-free within the module too): which files loaded and
// which were skipped, with the skip reasons.
type TraceIngest struct {
	Loaded  []string      `json:"loaded,omitempty"`
	Skipped []SkippedFile `json:"skipped,omitempty"`
}

// SkippedFile is one trace file the loader gave up on.
type SkippedFile struct {
	File string `json:"file"`
	Err  string `json:"err"`
}

// Outcome is how the run ended.
type Outcome struct {
	ExitCode int    `json:"exit_code"`
	Error    string `json:"error,omitempty"`
}

// MemSnapshot is the subset of runtime.MemStats worth keeping per run.
type MemSnapshot struct {
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	HeapSysBytes    uint64 `json:"heap_sys_bytes"`
	NumGC           uint32 `json:"num_gc"`
}

// NewManifest starts a manifest for one invocation, stamping the start
// time from clock. Build info and memory are captured separately
// (FillBuildInfo, CaptureMem) so tests that need byte-stable output
// can skip them.
func NewManifest(tool string, args []string, clock Clock) *Manifest {
	if args == nil {
		args = []string{}
	}
	return &Manifest{Schema: ManifestSchema, Tool: tool, Args: args, Start: clock()}
}

// FillBuildInfo records the Go version and, when the binary was built
// inside a git checkout, the vcs revision and dirty flag.
func (mf *Manifest) FillBuildInfo() {
	mf.GoVersion = runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				mf.GitRevision = s.Value
			case "vcs.modified":
				mf.GitModified = s.Value == "true"
			}
		}
	}
}

// CaptureMem records the process's allocation totals so far. Call once
// at the end of the run; ReadMemStats stops the world briefly.
func (mf *Manifest) CaptureMem() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mf.Mem = &MemSnapshot{
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		HeapSysBytes:    ms.HeapSys,
		NumGC:           ms.NumGC,
	}
}

// Finalize stamps the end time, the outcome, and the final metrics
// snapshot (nil when observability was off).
func (mf *Manifest) Finalize(clock Clock, m *Metrics, exitCode int, errText string) {
	mf.End = clock()
	mf.WallNs = mf.End.Sub(mf.Start).Nanoseconds()
	mf.Outcome = Outcome{ExitCode: exitCode, Error: errText}
	mf.Metrics = m.Snapshot()
}

// Write serializes the manifest as indented JSON with a trailing
// newline.
func (mf *Manifest) Write(w io.Writer) error {
	b, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile writes the manifest to path, creating or truncating it.
func (mf *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mf.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
