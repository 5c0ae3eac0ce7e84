package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tally counts the run's operations and the ones that failed; every
// correctness oracle reports through it.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	errs []string
}

// check counts one operation, failed when err is non-nil.
func (t *tally) check(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) < 10 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) errors() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.errs...)
}

// minPasses is the fewest repetitions a median is taken over.
const minPasses = 3

// passStats holds one measurement per pass: wall seconds, allocated
// megabytes, and the peak heap in megabytes (see heapPeak).
type passStats struct {
	wall, allocMB, heapMB []float64
}

// passes runs fn at least minPasses times, then again while another
// pass as long as the last still fits in budget. Each pass starts after
// a forced GC, so one pass's garbage does not tax the next.
func passes(budget time.Duration, fn func() error) (passStats, error) {
	var ps passStats
	start := time.Now()
	for {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hp := startHeapPeak()
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		peak := hp.Stop()
		if err != nil {
			return ps, err
		}
		runtime.ReadMemStats(&after)
		ps.wall = append(ps.wall, d.Seconds())
		ps.allocMB = append(ps.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		ps.heapMB = append(ps.heapMB, peak)
		if len(ps.wall) >= minPasses && time.Since(start)+d > budget {
			return ps, nil
		}
	}
}

// set reports the end-to-end metrics every workload shares: run_s is
// the median pass, alloc_mb and heap_peak_mb the median pass's
// allocation and peak heap.
func (ps passStats) set(m metrics, report map[string]any) {
	m.set("run_s", median(ps.wall), "s")
	m.set("alloc_mb", median(ps.allocMB), "MB")
	m.set("heap_peak_mb", median(ps.heapMB), "MB")
	report["pass_s"] = ps.wall
	report["pass_alloc_mb"] = ps.allocMB
	report["pass_heap_peak_mb"] = ps.heapMB
}

// setupRuns is how many times set-up is repeated for its median.
const setupRuns = 5

// setups times fn setupRuns times from a collected heap and returns the
// median seconds; fn keeps whatever state the last call built.
func setups(fn func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// heapPeak samples the GC's heap goal in the background until stopped.
// The goal is the heap size the runtime lets the process grow to before
// it collects again (about twice the live heap at the default GOGC), so
// its peak is the peak heap the run needs. Unlike HeapInuse it does not
// depend on where between two collections a sample lands, and reading
// it through runtime/metrics does not stop the world.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []rtmetrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in megabytes.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// allocs measures what fn allocates: mallocs and bytes.
func allocs(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// median is the median of xs, the mean of the middle two for an even
// count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// durQuantile is the nearest-rank q-quantile of a latency sample, in
// microseconds.
func durQuantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(time.Microsecond)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
