// Package use exercises the forward check against the drifted catalog.
package use

import "obscatpos/obs"

// Bad uses a name the catalog never declared.
func Bad() {
	obs.NewTrace("unregistered.query") // want `metric/span name "unregistered\.query" is not in the internal/obs catalog`
}

// Dyn builds a span name ad hoc instead of through an obs helper.
func Dyn(t *obs.Trace, name string) {
	t.Start("prefix." + name) // want `dynamic metric/span name does not come from the obs catalog`
}

// Touch keeps the live entries referenced so only the dead ones flag.
func Touch() {
	t := obs.NewTrace(obs.SpanQuery)
	t.Start(obs.SpanQuery)
	t.Start(obs.SpanCacheHit)
	obs.KernelOps.Inc()
	obs.CacheHits.Inc()
	obs.BadLayer.Inc()
}
