package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed stage of a traced query: parse, plan, execute, a
// fixpoint round, an answer extraction. Spans nest; kernel counter
// deltas recorded while a span is the innermost open one are
// attributed to it.
type Span struct {
	Name     string
	Dur      time.Duration
	Children []*Span
	Counters map[string]int64 // kernel counter deltas attributed to this span

	start  time.Time
	parent *Span
	t      *Trace
}

// Trace records the span tree of one query execution. Attach one to a
// query with the facade's WithTrace option (or gdb's Cypher PROFILE
// prefix) and render it with Render after the query finishes.
//
// A nil *Trace is valid everywhere: every method no-ops, so execution
// layers thread an optional trace without guards. Methods are
// mutex-serialized — tracing is opt-in, and its cost is only paid by
// the traced query.
type Trace struct {
	mu   sync.Mutex
	root *Span
	cur  *Span // innermost open span
}

// NewTrace starts a trace whose root span began at start and is open
// until Close. A caller passes time.Now(), or the time its request
// arrived when stages ran before it knew to trace them (AddSpan).
func NewTrace(name string, start time.Time) *Trace {
	t := &Trace{}
	t.root = &Span{Name: name, start: start, t: t}
	t.cur = t.root
	return t
}

// Start opens a child span of the innermost open span and makes it
// current. End the returned span to pop back. Nil-safe.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, start: time.Now(), parent: t.cur, t: t}
	t.cur.Children = append(t.cur.Children, s)
	t.cur = s
	return s
}

// End closes the span, recording its duration and making its parent
// current again. Nil-safe; ending a span twice is a no-op.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.Dur == 0 {
		s.Dur = time.Since(s.start)
	}
	if t.cur == s && s.parent != nil {
		t.cur = s.parent
	}
}

// Add attributes a counter delta to the innermost open span. Keys are
// the instrument names of the metrics registry (obs.Key*), so span
// totals and registry deltas line up. Nil-safe.
func (t *Trace) Add(key string, n int64) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur.Counters == nil {
		t.cur.Counters = map[string]int64{}
	}
	t.cur.Counters[key] += n
}

// AddSpan records an already-measured stage as a completed child of
// the innermost open span — how the parse stage, measured after the
// root's start but before the trace exists, enters the tree. Nil-safe.
func (t *Trace) AddSpan(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, Dur: d, parent: t.cur, t: t}
	t.cur.Children = append(t.cur.Children, s)
}

// Close ends every span still open (innermost first) including the
// root. Nil-safe.
func (t *Trace) Close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for s := t.cur; s != nil; s = s.parent {
		if s.Dur == 0 {
			s.Dur = time.Since(s.start)
		}
	}
	t.cur = t.root
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// Total sums a counter key over the span's subtree.
func (s *Span) Total(key string) int64 {
	if s == nil {
		return 0
	}
	n := s.Counters[key]
	for _, c := range s.Children {
		n += c.Total(key)
	}
	return n
}

// Render formats the span tree as indented text lines, one span per
// line with its duration and sorted counter deltas:
//
//	query: 1.204ms
//	    parse: 0.011ms
//	    execute: 1.102ms [kernel.mul.nnz=42 kernel.mul.ops=6]
//
// Counter keys are sorted so the rendering is deterministic. Nil-safe
// (returns nil).
func (t *Trace) Render() []string {
	root := t.Root()
	if root == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		line := fmt.Sprintf("%s%s: %.3fms", strings.Repeat("    ", depth), s.Name,
			float64(s.Dur.Nanoseconds())/1e6)
		if len(s.Counters) > 0 {
			keys := make([]string, 0, len(s.Counters))
			for k := range s.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = fmt.Sprintf("%s=%d", k, s.Counters[k])
			}
			line += " [" + strings.Join(parts, " ") + "]"
		}
		out = append(out, line)
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return out
}
