// Package obs is the fixture catalog with deliberate drift: a dead
// metric, a dead span constant, and an instrument outside any layer.
package obs

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
	KernelOps  = Default.Counter("kernel.mul.ops")
	CacheHits  = Default.Counter("cache.hits")
	CacheDead  = Default.Counter("cache.dead.count") // want `catalog entry "cache\.dead\.count" is never referenced`
	DeadMetric = Default.Counter("kernel.dead.ops")  // want `catalog entry "kernel\.dead\.ops" is never referenced`
	BadLayer   = Default.Counter("bogus.mul.ops")    // want `instrument "bogus\.mul\.ops" has no declared layer`
)

const (
	SpanQuery    = "query"
	SpanCacheHit = "cache.hit"
	SpanDead     = "dead" // want `catalog entry "dead" is never referenced`
)

type Trace struct{}

func NewTrace(name string) *Trace { return &Trace{} }

func (t *Trace) Start(name string) {}
