// Package use holds near misses for obscatalog: catalog constants,
// obs-derived names, matching literals, and the forwarding idiom.
package use

import "obscatneg/obs"

// startSpan forwards its name parameter — the wrapper idiom; its call
// sites are checked instead.
func startSpan(t *obs.Trace, name string) {
	t.Start(name)
}

func Good(t *obs.Trace) {
	t.Start(obs.SpanQuery)    // catalog constant
	t.Start(obs.SpanRound(3)) // obs-derived dynamic name
	t.Start("query")          // literal matching a registered name
	t.Start(obs.SpanCacheHit) // second-layer span constant
	startSpan(t, obs.SpanQuery)
	obs.KernelOps.Inc()
	obs.CacheHits.Inc()
	obs.NewTrace(obs.SpanQuery)
}
