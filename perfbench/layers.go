package main

import (
	"context"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/obs"
)

// layerMetrics is every per-layer metric, in BENCHMARK.json order, with its
// unit. A traced run reports all of them; a layer the workload leaves idle
// reads 0. A metric named "<span>_ms" is the mean self time of the span of
// that name.
var layerMetrics = []struct{ name, unit string }{
	{"core.build_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"core.compose_ms", "ms"},
	{"core.command_op_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"lp.pivots", "1/solve"},
	{"lp.refactors", "1/solve"},
	{"lp.ftran_ms", "ms"},
	{"lp.btran_ms", "ms"},
	{"lp.price_ms", "ms"},
	{"lp.factor_ms", "ms"},
	{"lp.update_ms", "ms"},
	{"lp.warm_pivots", "1/solve"},
	{"mat.factor_nnz", "count"},
	{"markov.evaluate_ms", "ms"},
	{"markov.stationary_ms", "ms"},
	{"markov.discounted_eval_ms", "ms"},
	{"sim.slices_per_s", "1/s"},
	{"sweep.curve_pivots", "1/curve"},
	{"sweep.warm_ratio", "ratio"},
	{"server.hit_ratio", "ratio"},
	{"server.warm_ratio", "ratio"},
	{"server.cache_ms", "ms"},
	{"server.warm-lookup_ms", "ms"},
	{"server.sweep_ms", "ms"},
	{"server.build_ms", "ms"},
	{"server.solve_ms", "ms"},
	{"server.extract_ms", "ms"},
	{"server.request_self_ms", "ms"},
	{"server.hit_p50_ms", "ms"},
	{"server.hit_p99_ms", "ms"},
	{"online.refreshes", "1/round"},
	{"online.patched", "ratio"},
	{"online.refresh_pivots", "1/refresh"},
	{"online.refresh_ms", "ms"},
	{"online.estimate_ms", "ms"},
	{"online.patch-model_ms", "ms"},
	{"online.patch-lp_ms", "ms"},
	{"online.refresh_p50_ms", "ms"},
	{"obs.monitor_solve_ms", "ms"},
}

// acc is a mean accumulator.
type acc struct {
	sum float64
	n   int
}

// layerAcc accumulates per-layer metrics, each a mean over the calls it saw.
type layerAcc map[string]*acc

func (l layerAcc) add(name string, v float64) {
	a := l[name]
	if a == nil {
		a = &acc{}
		l[name] = a
	}
	a.sum += v
	a.n++
}

// set records a metric that is one value rather than a mean over calls.
func (l layerAcc) set(name string, v float64) { l[name] = &acc{sum: v, n: 1} }

// report gives every per-layer metric in layerMetrics; a layer the
// workload leaves idle reads 0.
func (l layerAcc) report() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		v := 0.0
		if a := l[lm.name]; a != nil && a.n > 0 {
			v = a.sum / float64(a.n)
		}
		out[lm.name] = metric{v, lm.unit}
	}
	return out
}

// coldKinds and warmKinds are the operation kinds whose lp solve spans give
// the lp split of cold solves and the pivots of warm re-solves.
var (
	coldKinds = map[string]bool{"optimize": true, "k5_cold": true, "cold": true}
	warmKinds = map[string]bool{"resolve": true, "k5_warm": true}
)

// addTrace folds one operation's span tree into the per-layer metrics:
//   - every span's self time under "<span name>_ms";
//   - every span attribute named like a per-layer metric;
//   - the lp solve span that core.OptimizeProblemCtx annotates with pivots
//     and stage times: in cold-solve kinds the lp split, mat.factor_nnz and
//     core.solve_ms, the time of the enclosing core.optimize span (or of
//     the solve span itself where there is none) minus the lp stages; in
//     warm kinds lp.warm_pivots.
func (l layerAcc) addTrace(kind string, spans []obs.SpanJSON) {
	var walk func(parent *obs.SpanJSON, spans []obs.SpanJSON)
	walk = func(parent *obs.SpanJSON, spans []obs.SpanJSON) {
		for i := range spans {
			sp := &spans[i]
			l.add(sp.Name+"_ms", selfMS(*sp))
			for _, lm := range layerMetrics {
				if v, ok := sp.Attrs[lm.name]; ok {
					l.add(lm.name, num(v))
				}
			}
			if _, ok := sp.Attrs["pivots"]; ok {
				l.addSolve(kind, parent, sp)
			}
			walk(sp, sp.Spans)
		}
	}
	walk(nil, spans)
}

func (l layerAcc) addSolve(kind string, parent, sp *obs.SpanJSON) {
	switch {
	case warmKinds[kind]:
		l.add("lp.warm_pivots", num(sp.Attrs["pivots"]))
	case coldKinds[kind]:
		stages := 0.0
		for _, k := range []string{"ftran", "btran", "price", "factor", "update"} {
			v := num(sp.Attrs[k+"_ms"])
			stages += v
			l.add("lp."+k+"_ms", v)
		}
		d := sp.DurMS
		if parent != nil && parent.Name == "core.optimize" {
			d = parent.DurMS
		}
		l.add("core.solve_ms", d-stages)
		l.add("lp.pivots", num(sp.Attrs["pivots"]))
		l.add("lp.refactors", num(sp.Attrs["refactorizations"]))
		l.add("mat.factor_nnz", num(sp.Attrs["factor_nnz"]))
	}
}

// num reads a numeric span attribute: a Go number in the benchmark's own
// traces, a float64 in traces decoded from JSON.
func num(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	}
	return 0
}

// selfMS is a span's duration minus the union of its children's intervals.
func selfMS(sp obs.SpanJSON) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(sp.Spans))
	for _, c := range sp.Spans {
		ivs = append(ivs, iv{c.StartUS, c.StartUS + c.DurMS*1e3})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := 0.0, -1.0
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return sp.DurMS - covered/1e3
}

// perLayer is the per-layer split of a library workload, from its own
// traces.
func (r *run) perLayer() map[string]metric {
	l := layerAcc{}
	for _, tr := range r.traces {
		l.addTrace(tr.Name, tr.Spans)
	}
	return l.report()
}

// span runs fn inside an obs span named name, a no-op outside a trace.
func span(ctx context.Context, name string, fn func(ctx context.Context)) {
	ctx, sp := obs.StartSpan(ctx, name)
	fn(ctx)
	sp.End()
}

// solve runs OptimizeProblemCtx inside a core.optimize span; core's own
// solve and extract spans nest under it.
func solve(ctx context.Context, m *core.Model, opts core.Options, prob *lp.Problem) (res *core.Result, err error) {
	span(ctx, "core.optimize", func(ctx context.Context) { res, err = core.OptimizeProblemCtx(ctx, m, opts, prob) })
	return res, err
}

// assemble runs BuildFrequencyLP inside a core.assemble span.
func assemble(ctx context.Context, m *core.Model, opts core.Options) (prob *lp.Problem, err error) {
	span(ctx, "core.assemble", func(context.Context) { prob, err = core.BuildFrequencyLP(m, opts) })
	return prob, err
}

// relClose reports |a−b| ≤ tol·max(|a|,|b|), with a 1e-12 floor on the
// scale so exact zeros compare equal.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-12)
}
