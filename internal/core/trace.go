package core

import (
	"context"
	"time"
)

// NNZ records one non-terminal's set-bit count across a single fixpoint
// pass: Before is the count when the previous PassEvent fired (zero for the
// first event of a fresh evaluation), After the count when this one fired.
// Because passes only add bits, the per-nonterminal deltas of an
// evaluation's events telescope: their sum equals the bits the evaluation
// added to that relation.
type NNZ struct {
	Nonterminal string `json:"nonterminal"`
	Before      int    `json:"before"`
	After       int    `json:"after"`
}

// Delta returns the bits the pass added to this relation.
func (z NNZ) Delta() int { return z.After - z.Before }

// PassEvent describes one step of a closure evaluation: the seeding step
// (Pass 0, Products 0) or one fixpoint pass. Events of a single evaluation
// are delivered in order from the goroutine running the closure; the slices
// they carry must not be retained or mutated after the hook returns.
type PassEvent struct {
	// Phase names what the one fixpoint loop was seeded with when it ran
	// the pass: "full" (the whole index — the all-pairs closure),
	// "frontier" (the rows of an active set — source-restricted), or
	// "update" (the bits of new edges — incremental propagation). Every
	// event of one evaluation carries the same phase.
	Phase string `json:"phase"`
	// Pass numbers the events of one evaluation from 0 (the seeding step).
	Pass int `json:"pass"`
	// Products is the number of Boolean matrix multiplications this pass
	// actually ran (0 for the seeding step); a product whose frontier
	// operand was empty is skipped and not counted.
	Products int `json:"products"`
	// NNZ reports every non-terminal relation's size before/after the
	// pass, in grammar order.
	NNZ []NNZ `json:"nnz"`
	// Frontier is the number of active rows after the pass; it is 0 in
	// every phase except "frontier".
	Frontier int `json:"frontier,omitempty"`
	// Nodes is the graph's node count, the denominator of Saturation.
	Nodes int `json:"nodes"`
	// Bytes is the estimated heap footprint of the index matrices after
	// the pass.
	Bytes int64 `json:"bytes"`
	// Duration is the wall time of the pass.
	Duration time.Duration `json:"duration_ns"`
}

// Saturation is the frontier saturation ratio Frontier/Nodes — how much of
// the graph the source-restricted closure is actively maintaining. It is 0
// outside the "frontier" phase and reaches 1 when every row is active.
func (ev PassEvent) Saturation() float64 {
	if ev.Nodes == 0 {
		return 0
	}
	return float64(ev.Frontier) / float64(ev.Nodes)
}

// TotalDelta sums the per-nonterminal bit deltas of the pass.
func (ev PassEvent) TotalDelta() int {
	total := 0
	for _, z := range ev.NNZ {
		total += z.Delta()
	}
	return total
}

// Trace is a set of hooks, in the style of httptrace.ClientTrace, invoked
// at the named points of a closure evaluation. Nil hooks are skipped; a
// disabled trace (nil *Trace, or all hooks nil) costs the evaluation one
// pointer test and no allocations.
type Trace struct {
	// Pass is called after the seeding step and after every fixpoint pass
	// of RunContext, CloseContext, RunFromContext, UpdateContext and
	// ApplyContext.
	Pass func(PassEvent)
}

// enabled reports whether any hook is set.
func (t *Trace) enabled() bool { return t != nil && t.Pass != nil }

// traceKey is the context key WithTraceContext stores a *Trace under.
type traceKey struct{}

// WithTraceContext returns a context carrying the trace; evaluations run
// with the returned context fire its hooks. A nil trace returns ctx
// unchanged.
func WithTraceContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// ContextTrace returns the trace attached to ctx, or nil.
func ContextTrace(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// WithTracer installs an engine-wide trace, fired for every evaluation the
// engine runs and merged with any context-attached trace.
func WithTracer(t *Trace) Option {
	return func(e *Engine) { e.tracer = t }
}

// passTracer drives PassEvent delivery for one evaluation. A nil passTracer
// is the disabled state: every method no-ops, so tracing off costs the
// closure loop a pointer test per pass and no allocations or nnz scans.
type passTracer struct {
	engineTrace  *Trace
	contextTrace *Trace
	phase        string
	ix           *Index
	// before holds each relation's nnz as of the previous event, indexed
	// like Index.mats; events chain from it so deltas telescope.
	before    []int
	pass      int
	passStart time.Time
}

// newPassTracer returns the evaluation's tracer, or nil when neither the
// engine nor the context carries an enabled trace.
func (e *Engine) newPassTracer(ctx context.Context, phase string, ix *Index) *passTracer {
	et, ct := e.tracer, ContextTrace(ctx)
	if !et.enabled() {
		et = nil
	}
	if !ct.enabled() {
		ct = nil
	}
	if et == nil && ct == nil {
		return nil
	}
	return &passTracer{
		engineTrace:  et,
		contextTrace: ct,
		phase:        phase,
		ix:           ix,
		before:       make([]int, len(ix.mats)),
	}
}

// snapshot re-bases the before counts on the index's current state, so the
// next event reports deltas relative to it. Used by evaluations that start
// from a non-empty index (incremental updates) before they seed.
func (pt *passTracer) snapshot() {
	if pt == nil {
		return
	}
	for a, m := range pt.ix.mats {
		pt.before[a] = m.Nnz()
	}
}

// beginPass marks the start of the wall-time window the next event reports.
func (pt *passTracer) beginPass() {
	if pt == nil {
		return
	}
	pt.passStart = time.Now()
}

// endPass fires a PassEvent for the work done since beginPass and advances
// the event chain (pass number and before counts).
func (pt *passTracer) endPass(products, frontier int) {
	if pt == nil {
		return
	}
	ev := PassEvent{
		Phase:    pt.phase,
		Pass:     pt.pass,
		Products: products,
		NNZ:      make([]NNZ, len(pt.ix.mats)),
		Frontier: frontier,
		Nodes:    pt.ix.n,
		Bytes:    pt.ix.Bytes(),
		Duration: time.Since(pt.passStart),
	}
	for a, m := range pt.ix.mats {
		ev.NNZ[a] = NNZ{Nonterminal: pt.ix.cnf.Names[a], Before: pt.before[a], After: m.Nnz()}
		pt.before[a] = ev.NNZ[a].After
	}
	pt.pass++
	if pt.engineTrace != nil {
		pt.engineTrace.Pass(ev)
	}
	if pt.contextTrace != nil {
		pt.contextTrace.Pass(ev)
	}
}
