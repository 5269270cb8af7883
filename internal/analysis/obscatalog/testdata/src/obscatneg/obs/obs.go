// Package obs is the clean fixture catalog: every entry referenced,
// every instrument inside a declared layer.
package obs

import "strconv"

type Counter struct{}

func (c *Counter) Inc() {}

type Registry struct{}

func (r *Registry) Counter(name string) *Counter { return &Counter{} }

var Default = &Registry{}

const (
	LayerKernel = "kernel"
	LayerCache  = "cache"
)

var (
	KernelOps = Default.Counter("kernel.mul.ops")
	CacheHits = Default.Counter("cache.hits")
)

const (
	SpanQuery    = "query"
	SpanCacheHit = "cache.hit"
)

// SpanRound derives a per-round span name inside the catalog package.
func SpanRound(n int) string { return "round " + strconv.Itoa(n) }

type Trace struct{}

func NewTrace(name string) *Trace { return &Trace{} }

func (t *Trace) Start(name string) {}
