package main

import (
	"math"
	"time"

	"repro/internal/reconstruct"
	"repro/internal/sat"
	"repro/internal/service"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// samples and note feed the human-readable table only.
	samples int
	note    string
}

// routes are the dispatcher's cost-model routes, reported as counts.
var routes = []string{
	reconstruct.RouteRefuted, reconstruct.RoutePinned, reconstruct.RouteDecode,
	reconstruct.RouteBrute, reconstruct.RouteSession, reconstruct.RouteSAT,
}

// spanMetric selects spans by name (and optionally route, k and root
// name) and reports their median self time in unit: a median, so one
// garbage-collection pause inside a sub-microsecond call does not set it.
type spanMetric struct {
	name, span, route, root string
	k                       int
	unit                    string
	scale                   float64 // ns per unit
}

var spanMetrics = []spanMetric{
	{name: "core.readlog_us", span: spanReadLog, unit: "us", scale: 1e3},
	{name: "encoding.build_ms", span: spanBuild, unit: "ms", scale: 1e6},
	{name: "reconstruct.features_us", span: spanFeatures, unit: "us", scale: 1e3},
	{name: "bitvec.key_ns", span: spanKey, unit: "ns", scale: 1},
	{name: "route.decode_us", span: spanEnumerate, route: reconstruct.RouteDecode, unit: "us", scale: 1e3},
	{name: "route.sat-inc_us", span: spanEnumerate, route: reconstruct.RouteSession, unit: "us", scale: 1e3},
	{name: "decode.k3_us", span: spanEnumerate, route: reconstruct.RouteDecode, k: 3, unit: "us", scale: 1e3},
	{name: "decode.k4_us", span: spanEnumerate, route: reconstruct.RouteDecode, k: 4, unit: "us", scale: 1e3},
	{name: "logstore.append_us", span: spanAppend, unit: "us", scale: 1e3},
	{name: "logstore.query_us", span: spanQuery, root: "export", unit: "us", scale: 1e3},
	{name: "logstore.open_ms", span: spanOpen, unit: "ms", scale: 1e6},
}

// layerInput is everything the per-layer metrics are computed from.
type layerInput struct {
	spans         []span
	traced        *replayRun
	plain         *replayRun // the untraced lockstep replay
	before, after map[string]int64
	daemon        *runResult
	bytesPerTC    float64
}

// perLayer derives every per-layer metric.
func perLayer(in layerInput) map[string]metric {
	out := map[string]metric{}
	self := selfTimes(in.spans)
	byID := map[int]span{}
	for _, s := range in.spans {
		byID[s.ID] = s
	}
	for _, sm := range spanMetrics {
		var own, lad []float64
		for i, s := range in.spans {
			if s.Name != sm.span || (sm.route != "" && s.Route != sm.route) || (sm.k != 0 && s.K != sm.k) {
				continue
			}
			if sm.root != "" {
				if p := byID[s.Parent].Name; p != rootExport && p != rootLadderScan {
					continue
				}
			}
			if s.Op <= ladderOp {
				lad = append(lad, float64(self[i])/sm.scale)
			} else {
				own = append(own, float64(self[i])/sm.scale)
			}
		}
		m := metric{Value: median(own), Unit: sm.unit, samples: len(own)}
		if len(own) == 0 {
			m = metric{Value: median(lad), Unit: sm.unit, samples: len(lad), note: "ladder"}
		}
		out[sm.name] = m
	}

	c := in.traced.counts
	for _, r := range routes {
		out["route."+r+".count"] = metric{Value: float64(c[reconstruct.MetricDispatchChosenPrefix+r]), Unit: "count"}
	}
	out["route.fallback.count"] = metric{Value: float64(c[reconstruct.MetricDispatchFallback]), Unit: "count"}
	for name, counter := range map[string]string{
		"sat.conflicts": sat.MetricConflicts, "sat.decisions": sat.MetricDecisions, "sat.propagations": sat.MetricPropagations,
	} {
		out[name] = metric{Value: perSolve(c[counter], in.traced.solves), Unit: "count/solve", samples: in.traced.solves}
	}
	out["replay.ops"] = metric{Value: float64(in.traced.ops), Unit: "count"}
	out["replay.solves"] = metric{Value: float64(in.traced.solves), Unit: "count"}

	delta := func(name string) float64 { return float64(in.after[name] - in.before[name]) }
	hits, misses := delta(service.MetricCacheHits), delta(service.MetricCacheMisses)
	out["service.cache_lookups"] = metric{Value: hits + misses, Unit: "count"}
	out["service.cache_hit_ratio"] = metric{Value: perSolve(int64(hits), int(hits+misses)), Unit: "ratio", samples: int(hits + misses)}
	for name, counter := range map[string]string{
		"service.solves": service.MetricSolves, "service.coalesced": service.MetricCoalesced,
		"service.shed": service.MetricShed, "service.timeouts": service.MetricTimeouts,
		"service.encoding_builds": service.MetricEncodingBuilds,
	} {
		out[name] = metric{Value: delta(counter), Unit: "count"}
	}
	out["service.overhead_us"] = overhead(in.spans, in.daemon.primary)

	out["logstore.bytes_per_tc"] = metric{Value: in.bytesPerTC, Unit: "B/tc"}
	out["client.lag_ms"] = metric{Value: median(in.daemon.lag), Unit: "ms", samples: len(in.daemon.lag)}
	out["trace.overhead_pct"] = traceOverhead(in.traced, in.plain)
	return out
}

// traceOverhead is how much longer the traced replayer took than the
// untraced one over the same ops, each op timed on both back to back.
func traceOverhead(traced, plain *replayRun) metric {
	var t, p time.Duration
	for op, d := range traced.opWall {
		t += d
		p += plain.opWall[op]
	}
	return metric{Value: 100 * (t - p).Seconds() / p.Seconds(), Unit: "%", samples: len(traced.opWall)}
}

func perSolve(n int64, solves int) float64 {
	if solves == 0 {
		return 0
	}
	return float64(n) / float64(solves)
}

// overhead is the service's own share of a primary op: the op's
// latency measured against the daemon minus the summed layer spans of
// the same op in the traced replay (the features probe excluded, since
// EnumerateRouted already contains that work), as the median over ops
// present in both.
func overhead(spans []span, primary []sample) metric {
	layers := map[int]int64{}
	roots := map[int]bool{}
	for _, s := range spans {
		if s.Parent == 0 && (s.Name == rootFrame || s.Name == rootQuery || s.Name == rootReplay) {
			roots[s.ID] = true
			layers[s.Op] = 0
		}
	}
	for _, s := range spans {
		if roots[s.Parent] && s.Name != spanFeatures {
			layers[s.Op] += s.dur()
		}
	}
	var diffs []float64
	for _, p := range primary {
		if l, ok := layers[p.op]; ok {
			diffs = append(diffs, (p.ms*1e6-float64(l))/1e3)
		}
	}
	if len(diffs) == 0 {
		return metric{Value: math.NaN(), Unit: "us"}
	}
	return metric{Value: median(diffs), Unit: "us", samples: len(diffs)}
}
