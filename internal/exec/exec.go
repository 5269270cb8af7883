// Package exec holds the execution-governance layer shared by every
// query engine in the repository: a functional-options type configuring
// how a query runs (context, timeout, work budget, algorithm) and a Run
// governor the algorithms consult between units of work.
//
// The paper's algorithms are batch fixpoints; embedded in a database
// serving concurrent traffic they must instead be bounded and
// interruptible. All long-running loops — CFPQ fixpoint rounds, plan
// operator pulls, and the row blocks of large matrix multiplications —
// check the governor and abort with context.Canceled,
// context.DeadlineExceeded or ErrBudget.
package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
)

// ErrBudget is returned when a query exceeds its work budget (the
// cumulative number of relation entries produced across fixpoint
// iterations).
var ErrBudget = errors.New("query work budget exceeded")

// Algorithm selects the CFPQ evaluation algorithm for the unified
// EvalCFPQ entry point.
type Algorithm int

const (
	// AlgAuto picks by query shape: the multiple-source algorithm when
	// a source set is given, all-pairs otherwise.
	AlgAuto Algorithm = iota
	// AlgMatrix is the all-pairs matrix algorithm (paper Algorithm 1).
	AlgMatrix
	// AlgSemiNaive is the delta-driven all-pairs variant.
	AlgSemiNaive
	// AlgWorklist is the scalar worklist baseline.
	AlgWorklist
	// AlgMultiSource is the multiple-source algorithm (paper
	// Algorithm 2).
	AlgMultiSource
	// AlgSinglePath is all-pairs with single-path witness extraction.
	AlgSinglePath
	// AlgMSSinglePath is multiple-source with single-path witness
	// extraction.
	AlgMSSinglePath
)

func (a Algorithm) String() string {
	switch a {
	case AlgAuto:
		return "auto"
	case AlgMatrix:
		return "matrix"
	case AlgSemiNaive:
		return "seminaive"
	case AlgWorklist:
		return "worklist"
	case AlgMultiSource:
		return "multisource"
	case AlgSinglePath:
		return "singlepath"
	case AlgMSSinglePath:
		return "ms-singlepath"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Options tunes query execution. The zero value means: background
// context, no timeout, unlimited budget, algorithm by query shape.
type Options struct {
	// Ctx cancels the query when done; nil means context.Background().
	Ctx context.Context
	// Timeout bounds wall-clock execution; 0 means no timeout. Applied
	// on top of Ctx when a Run starts.
	Timeout time.Duration
	// Budget bounds the total work a query may perform, measured in
	// relation entries produced across fixpoint iterations
	// (iterations × nnz); 0 means unlimited.
	Budget int64
	// Algorithm selects the CFPQ evaluation algorithm (cfpq.Eval).
	Algorithm Algorithm
	// Trace, when non-nil, receives the query's span tree and kernel
	// counter deltas (see obs.Trace). Nil means no tracing.
	Trace *obs.Trace

	// run, when set by WithRun, shares an existing governor (and its
	// context and budget accounting) instead of starting a fresh one —
	// how the plan layer threads one per-query budget through nested
	// CFPQ resolutions.
	run *Run
}

// Option mutates Options.
type Option func(*Options)

// WithContext attaches a cancellation context to the query.
func WithContext(ctx context.Context) Option { return func(o *Options) { o.Ctx = ctx } }

// WithTimeout bounds the query's wall-clock execution time.
func WithTimeout(d time.Duration) Option { return func(o *Options) { o.Timeout = d } }

// WithBudget bounds the query's total work (relation entries produced
// across fixpoint iterations). Exceeding it aborts with ErrBudget.
func WithBudget(n int64) Option { return func(o *Options) { o.Budget = n } }

// WithAlgorithm selects the CFPQ evaluation algorithm.
func WithAlgorithm(a Algorithm) Option { return func(o *Options) { o.Algorithm = a } }

// WithTrace attaches a per-query trace: the governor records kernel
// counter deltas into the innermost open span, and the execution
// layers open stage spans through Run.StartSpan.
func WithTrace(t *obs.Trace) Option { return func(o *Options) { o.Trace = t } }

// WithRun shares an existing governor: the query joins r's context and
// budget accounting instead of starting its own.
func WithRun(r *Run) Option { return func(o *Options) { o.run = r } }

// Build folds a list of options into an Options value.
func Build(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// Apply folds additional options on top of an existing Options value —
// how per-query overrides layer over per-index or per-server defaults.
func (o Options) Apply(opts []Option) Options {
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// Start materializes the options into a Run governor. The returned
// cancel function must be called when the query finishes (it releases
// the timeout timer); it is a no-op for shared runs.
func (o Options) Start() (*Run, context.CancelFunc) {
	if o.run != nil {
		return o.run, func() {}
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := context.CancelFunc(func() {})
	if o.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
	}
	r := &Run{ctx: ctx, budget: o.Budget, trace: o.Trace}
	return r, cancel
}

// Run is the per-query governor: it carries the cancellation context
// and tracks the work spent against the budget. A Run may be shared
// across the layers of one query (plan operators, CFPQ resolution,
// matrix kernels); the spent counter is atomic so concurrent layers can
// charge it.
type Run struct {
	ctx    context.Context
	budget int64 // 0 = unlimited
	spent  atomic.Int64
	trace  *obs.Trace // nil = untraced
}

// NewRun builds a governor directly from a context (no timeout, no
// budget) — a convenience for call sites that only need cancellation.
func NewRun(ctx context.Context) *Run {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Run{ctx: ctx}
}

// Ctx returns the run's cancellation context (never nil).
func (r *Run) Ctx() context.Context {
	if r == nil || r.ctx == nil {
		return context.Background()
	}
	return r.ctx
}

// Spent returns the work charged so far.
func (r *Run) Spent() int64 {
	if r == nil {
		return 0
	}
	return r.spent.Load()
}

// Err reports why the query must stop: the context's error if it is
// done, ErrBudget if the budget is exhausted, nil otherwise. Nil
// receivers (ungoverned runs) always return nil, so call sites can
// thread an optional governor without guards.
func (r *Run) Err() error {
	if r == nil {
		return nil
	}
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			return err
		}
	}
	if r.budget > 0 && r.spent.Load() > r.budget {
		return ErrBudget
	}
	return nil
}

// Charge adds n units of work (relation entries produced) and reports
// ErrBudget once the cumulative total exceeds the budget.
func (r *Run) Charge(n int) error {
	if r == nil {
		return nil
	}
	if n > 0 {
		r.spent.Add(int64(n))
	}
	return r.Err()
}

// Trace returns the trace attached to this run (nil for untraced or
// nil runs).
func (r *Run) Trace() *obs.Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// StartSpan opens a named stage span on the run's trace. End the
// returned span when the stage finishes. A no-op (returning nil, which
// is safe to End) for untraced or nil runs.
func (r *Run) StartSpan(name string) *obs.Span {
	if r == nil {
		return nil
	}
	return r.trace.Start(name)
}

// RecordOutcome classifies how a top-level query ended and bumps the
// matching governor outcome counter. Call it exactly once per query
// boundary (the gdb command path and the EvalCFPQ/EvalRPQ facade) —
// not per algorithm invocation, which may share a Run.
func RecordOutcome(err error) {
	switch {
	case err == nil:
		obs.GovCompleted.Inc()
	case errors.Is(err, ErrBudget):
		obs.GovBudget.Inc()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		obs.GovCancelled.Inc()
	default:
		obs.GovFailed.Inc()
	}
}

// Mul is the governed Boolean matrix multiplication: it checks
// cancellation between row blocks and charges the product's entry count
// against the budget.
func (r *Run) Mul(a, b *matrix.Bool) (*matrix.Bool, error) {
	if r == nil {
		return matrix.Mul(a, b), nil
	}
	m, err := matrix.MulCtx(r.ctx, a, b)
	if err != nil {
		return nil, err
	}
	return m, r.countMul(m.NVals())
}

// MulAddRows is the governed masked multiply-accumulate t<¬t> ∪= a × b
// (matrix.MulAddRows), the fixpoint driver's one kernel: it polls
// cancellation every few rows of a and returns the entries t gained.
// It counts and charges the product's entries before the mask, as Mul
// does, and counts one add of the entries t gained when there are any,
// as Add does. On an error the entries already added stay in t and are
// returned with it.
func (r *Run) MulAddRows(t *matrix.Bool, a, b matrix.Operand, wit map[uint64]uint32) (*matrix.RowList, error) {
	added, nnz, err := matrix.MulAddRows(r.Ctx(), t, a, b, wit)
	if r == nil {
		return added, err
	}
	if !added.Empty() {
		r.countAdded(int64(added.NVals()))
	}
	if cerr := r.countMul(nnz); err == nil {
		err = cerr
	}
	return added, err
}

// countMul records one product of nnz entries and charges them.
func (r *Run) countMul(nnz int) error {
	obs.KernelMulOps.Inc()
	obs.KernelMulNNZ.Add(int64(nnz))
	r.trace.Add(obs.KeyMulOps, 1)
	r.trace.Add(obs.KeyMulNNZ, int64(nnz))
	return r.Charge(nnz)
}

// Add is the governed element-wise OR: it folds b into a in place,
// reports whether a changed, and records the op and the entries added
// into the metrics registry and the run's trace. Safe on nil runs
// (plain matrix.AddInPlace, uncounted).
func (r *Run) Add(a, b *matrix.Bool) bool {
	if r == nil {
		return matrix.AddInPlace(a, b)
	}
	before := a.NVals()
	changed := matrix.AddInPlace(a, b)
	r.countAdded(int64(a.NVals() - before))
	return changed
}

// countAdded records one add that grew a relation by delta entries.
func (r *Run) countAdded(delta int64) {
	obs.KernelAddOps.Inc()
	obs.KernelAddNNZ.Add(delta)
	r.trace.Add(obs.KeyAddOps, 1)
	r.trace.Add(obs.KeyAddNNZ, delta)
}

// ObserveFrontier records a multiple-source frontier size (the nnz of
// the src extraction the algorithm is about to multiply).
func (r *Run) ObserveFrontier(nnz int) {
	if r != nil {
		obs.KernelFrontierNNZ.Observe(int64(nnz))
	}
}
