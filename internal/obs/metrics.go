// Package obs is the observability layer of the module: a lock-cheap
// metrics registry (counters, gauges, fixed-bucket histograms with a
// snapshot/reset API and deterministic rendering), per-query traces
// (span trees annotated with kernel counter deltas), and the slow-query
// ring buffer behind the server's SLOWLOG command.
//
// The package sits below every other layer — it imports only the
// standard library — so matrix kernels, the execution governor, the
// database engine, and the RESP server can all report into one place
// without import cycles.
//
// Hot-path cost: every instrument update is a single atomic add behind
// one atomic flag load, and tracing hooks are a nil check unless a
// Trace was attached to the query. SetEnabled(false) turns the
// instrument updates into a load-and-return, which is how the root
// package's BenchmarkObsOverhead (make bench-smoke) measures the
// instrumentation cost.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates every instrument update. Default on: the INFO command
// and the metrics endpoint should have data without opt-in.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns instrument updates on or off globally (tracing is
// unaffected — it is opt-in per query). Returns the previous state.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Enabled reports whether instrument updates are currently recorded.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing metric.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 && enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (open connections,
// resident graphs).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the registered metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores an absolute value.
func (g *Gauge) Set(n int64) {
	if enabled.Load() {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) {
	if enabled.Load() {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram over int64 observations
// (latencies in microseconds, sizes in entries). The bucket layout is
// fixed at registration so snapshots from different processes line up.
type Histogram struct {
	name    string
	bounds  []int64 // ascending upper bounds; an implicit +Inf bucket follows
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Name returns the registered metric name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	// Bucket counts are cumulative-free (per-bucket): find the first
	// bound >= v; linear scan beats binary search at these sizes.
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(h.bounds)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Standard bucket layouts.
var (
	// LatencyBuckets is for durations in microseconds: 50µs .. 10s.
	LatencyBuckets = []int64{50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000,
		25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 2_500_000, 10_000_000}
	// SizeBuckets is for entry counts (nnz, frontier sizes): powers of 4.
	SizeBuckets = []int64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
	// RoundBuckets is for fixpoint iteration counts.
	RoundBuckets = []int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128}
)

// Registry holds named instruments. Registration takes a lock;
// instrument updates afterwards are lock-free. The zero Registry is
// not ready to use — call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter   // guarded by mu
	gauges     map[string]*Gauge     // guarded by mu
	histograms map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Default is the process-wide registry every built-in instrument
// registers into; INFO and the metrics endpoint render it.
var Default = NewRegistry()

// Counter registers (or returns the existing) counter with the name.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge registers (or returns the existing) gauge with the name.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram registers (or returns the existing) histogram with the
// name and bucket upper bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := &Histogram{name: name, bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	r.histograms[name] = h
	return h
}

// Snapshot is a flat, point-in-time view of a registry: counter and
// gauge values under their own names, histograms flattened into
// <name>.count, <name>.sum, and one <name>.le.<bound> entry per
// non-empty bucket (le.inf for the overflow bucket).
type Snapshot map[string]int64

// Snapshot captures the current values. Concurrent updates during the
// capture land in either this snapshot or the next — each instrument
// is read atomically.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	for name, c := range r.counters {
		s[name] = c.Value()
	}
	for name, g := range r.gauges {
		s[name] = g.Value()
	}
	for name, h := range r.histograms {
		s[name+".count"] = h.count.Load()
		s[name+".sum"] = h.sum.Load()
		for i := range h.buckets {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			if i < len(h.bounds) {
				s[fmt.Sprintf("%s.le.%d", name, h.bounds[i])] = n
			} else {
				s[name+".le.inf"] = n
			}
		}
	}
	return s
}

// Sub returns the per-key difference s - prev (keys missing from prev
// count as zero; zero deltas are omitted).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{}
	for k, v := range s {
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// Keys returns the snapshot's keys in sorted order — the deterministic
// iteration order for rendering.
func (s Snapshot) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Render formats the snapshot as sorted "name:value" lines (the INFO
// body format).
func (s Snapshot) Render() []string {
	out := make([]string, 0, len(s))
	for _, k := range s.Keys() {
		out = append(out, fmt.Sprintf("%s:%d", k, s[k]))
	}
	return out
}

// Reset zeroes every registered instrument (counts, sums, buckets).
// Registration survives; pointers held by call sites stay valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		h.count.Store(0)
		h.sum.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
}
