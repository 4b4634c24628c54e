package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// perLayer derives the served workload's per-layer metrics from the
// daemon's own telemetry, collected after the timed window: /v1/stats
// deltas and the request traces of GET /v1/trace, folded by the same
// addTrace as the library workloads' traces.
func (s *servedRun) perLayer(delta map[string]int64) (map[string]metric, error) {
	st, b, err := s.a.get(fmt.Sprintf("%s/v1/trace?n=%d", s.d.base, servedTraceBuf))
	if err != nil || st != http.StatusOK {
		return nil, fmt.Errorf("served: /v1/trace: status %d: %v", st, err)
	}
	var doc struct {
		Traces []obs.TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	s.r.traces = doc.Traces
	l := layerAcc{}
	for _, tr := range doc.Traces {
		l.addTrace(servedSpans(tr))
	}
	// The daemon's build span is BuildFrequencyLP.
	if a := l["server.build_ms"]; a != nil {
		l["core.assemble_ms"] = a
	}

	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	l.set("server.hit_ratio", ratio(delta["exact_hits"], delta["optimize_queries"]+delta["sweep_queries"]))
	l.set("server.warm_ratio", ratio(delta["warm_solves"], delta["warm_solves"]+delta["cold_solves"]))
	l.set("online.refreshes", ratio(delta["online_refreshes"], int64(s.nB)))
	l.set("online.patched", ratio(delta["online_patched"], delta["online_refreshes"]))
	for name, xs := range map[string][]float64{
		"online.refresh_pivots": s.refreshPivot,
		"sweep.curve_pivots":    s.sweepPivots,
		"sweep.warm_ratio":      s.sweepWarm,
	} {
		for _, x := range xs {
			l.add(name, x)
		}
	}
	if hits := s.lat["hit"]; len(hits) > 0 {
		l.set("server.hit_p50_ms", median(hits))
		if tailOK(len(hits), 0.99) {
			l.set("server.hit_p99_ms", quantile(hits, 0.99))
		}
	}
	if xs := s.lat["refresh"]; len(xs) > 0 {
		l.set("online.refresh_p50_ms", median(xs))
	}
	return l.report(), nil
}

// servedSpans names one daemon trace's operation kind (hit, cold, sweep or
// observe) and renames its spans after the layer they time:
//   - an optimize request becomes one root span holding its top-level
//     spans as server.<name>; on a hit the root is server.request_self, the
//     time outside every child (HTTP handling, decode, encode);
//   - a sweep keeps only its sweep span, without children: its per-point
//     spans hang off the request's root and stop at the span cap;
//   - an observe keeps its online refresh spans as online.<name>.
func servedSpans(tr obs.TraceJSON) (string, []obs.SpanJSON) {
	rename := func(prefix string, sp obs.SpanJSON, names ...string) obs.SpanJSON {
		for _, n := range names {
			if sp.Name == n {
				sp.Name = prefix + n
			}
		}
		return sp
	}
	switch tr.Name {
	case "POST /v1/optimize":
		kind, _ := tr.Attrs["cache"].(string)
		root := obs.SpanJSON{Name: "server.request", DurMS: tr.DurMS}
		if kind == "hit" {
			root.Name = "server.request_self"
		}
		for _, sp := range tr.Spans {
			root.Spans = append(root.Spans, rename("server.", sp, "cache", "warm-lookup", "build", "solve", "extract"))
		}
		return kind, []obs.SpanJSON{root}
	case "POST /v1/sweep":
		var out []obs.SpanJSON
		for _, sp := range tr.Spans {
			if sp.Name == "sweep" {
				out = append(out, obs.SpanJSON{Name: "server.sweep", DurMS: sp.DurMS})
			}
		}
		return "sweep", out
	}
	var out []obs.SpanJSON
	for _, sp := range tr.Spans {
		if sp.Name != "refresh" {
			continue
		}
		sp.Name = "online.refresh"
		kids := make([]obs.SpanJSON, len(sp.Spans))
		for i, c := range sp.Spans {
			kids[i] = rename("online.", c, "estimate", "patch-model", "patch-lp")
		}
		sp.Spans = kids
		out = append(out, sp)
	}
	return "observe", out
}
