package main

import (
	"math/rand"
	"time"

	"dcer"
	"dcer/internal/chase"
	"dcer/internal/rule"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions (checked by TestMetricsMatchBenchmarkJSON).
// moves names the end-to-end metric, and the workload, that a change in
// a per-layer metric should show up in; BENCHMARK.json's fixed schema
// has no place for it, so the report prints it beside each value.
type metricDef struct{ name, unit, better, moves string }

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"match_cu", "cu", "lower", ""},
	{"total_cu", "cu", "lower", ""},
	{"cpu_cu", "cu", "lower", ""},
	{"peak_rss_mb", "MB", "lower", ""},
	{"precision", "ratio", "higher", ""},
	{"recall", "ratio", "higher", ""},
}

// Where per-layer changes should show.
const (
	toSetup      = "setup_s on every workload"
	toMatchSeq   = "match_cu on tpch-seq"
	toInsert     = "total_cu on movie-stream (inserts)"
	toMatchMovie = "match_cu on movie-stream"
	toMatchPar   = "match_cu on tpch-par2"
	toParRSS     = "match_cu and peak_rss_mb on tpch-par2 and tpch-dist2"
	toMatchDist  = "match_cu on tpch-dist2"
	toAll        = "match_cu and peak_rss_mb on every workload"
)

// perLayer are the metrics of single layers, reported by traced runs. A
// layer a workload does not call reads 0 there.
var perLayer = []metricDef{
	{"relation.load_s", "s", "lower", toSetup},
	{"relation.load_mb_per_s", "MB/s", "higher", toSetup},
	{"relation.tuples", "count", "higher", toSetup},
	{"chase.build_s", "s", "lower", toMatchSeq},
	{"chase.deduce_s", "s", "lower", toMatchSeq},
	{"chase.valuations", "count", "lower", toMatchSeq},
	{"chase.extensions", "count", "lower", toMatchSeq},
	{"chase.extensions_per_valuation", "ratio", "lower", toMatchSeq},
	{"chase.insert_s", "s", "lower", toInsert},
	{"chase.insert_p50_ms", "ms", "lower", toInsert},
	{"chase.insert_p90_ms", "ms", "lower", toInsert},
	{"chase.rounds", "count", "lower", toInsert},
	{"chase.deps_recorded", "count", "lower", toInsert},
	{"chase.deps_fired", "count", "higher", toInsert},
	{"chase.deps_dropped", "count", "lower", toInsert},
	{"chase.dep_fire_ratio", "ratio", "higher", toInsert},
	{"chase.plan_reorders", "count", "lower", toMatchSeq},
	{"mlpred.calls", "count", "lower", toMatchMovie},
	{"mlpred.pair_hit_ratio", "ratio", "higher", toMatchMovie},
	{"mlpred.feature_hit_ratio", "ratio", "higher", toMatchMovie},
	{"mlpred.ns_per_call", "ns", "lower", toMatchMovie},
	{"hypart.partition_s", "s", "lower", toParRSS},
	{"hypart.replication", "ratio", "lower", toParRSS},
	{"hypart.speedup_ceiling", "ratio", "higher", toParRSS},
	{"hypart.fragment_skew", "ratio", "lower", toParRSS},
	{"mqo.hash_reuse_ratio", "ratio", "higher", toParRSS},
	{"mqo.hash_fns_shared", "count", "higher", toParRSS},
	{"dmatch.er_s", "s", "lower", toMatchPar},
	{"dmatch.step_wall_s", "s", "lower", toMatchPar},
	{"dmatch.route_s", "s", "lower", toMatchPar},
	{"dmatch.worker_busy_s", "s", "lower", toMatchPar},
	{"dmatch.worker_idle_ratio", "ratio", "lower", toMatchPar},
	{"dmatch.supersteps", "count", "lower", toMatchPar},
	{"dmatch.messages_routed", "count", "lower", toMatchPar},
	{"dmatch.messages_deduped", "count", "higher", toMatchPar},
	{"dmatch.fact_yield", "ratio", "higher", toMatchPar},
	{"dmatch.rebalances", "count", "lower", toMatchPar},
	{"dmatch.recoveries", "count", "lower", "must stay 0"},
	{"dmatch.speedup", "ratio", "higher", toMatchPar},
	{"dmatch.dist_overhead_s", "s", "lower", toMatchDist},
	{"wire.bytes", "bytes", "lower", toMatchDist},
	{"wire.frames", "count", "lower", toMatchDist},
	{"wire.codec_s", "s", "lower", toMatchDist},
	{"wire.dict_ratio", "ratio", "higher", toMatchDist},
	{"output.canon_s", "s", "lower", "total_cu on every workload"},
	{"go.alloc_mb", "MB", "lower", toAll},
	{"go.gc_cycles", "count", "lower", toAll},
	{"go.gc_pause_s", "s", "lower", toAll},
	{"self.relation_s", "s", "lower", toSetup},
	{"self.rule_s", "s", "lower", toSetup},
	{"self.chase_s", "s", "lower", "match_cu on tpch-seq and movie-stream"},
	{"self.hypart_s", "s", "lower", toParRSS},
	{"self.dmatch_s", "s", "lower", "match_cu on tpch-par2 and tpch-dist2"},
	{"self.route_s", "s", "lower", "match_cu on tpch-par2 and tpch-dist2"},
	{"self.output_s", "s", "lower", "total_cu on every workload"},
	{"self.unattributed_s", "s", "lower", "total_cu on every workload"},
	{"trace.overhead_s", "s", "lower", "none: traced minus untraced total_s"},
	{"host.cu_s", "s", "lower", "none: the host's speed, the unit of every *_cu metric"},
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addStats sums the counters of two engines (the per-worker engines of a
// DMatch run).
func addStats(a, b chase.Stats) chase.Stats {
	a.Valuations += b.Valuations
	a.Extensions += b.Extensions
	a.PlanReorders += b.PlanReorders
	a.DepsRecorded += b.DepsRecorded
	a.DepsFired += b.DepsFired
	a.DepsDropped += b.DepsDropped
	a.Rounds += b.Rounds
	a.MLCacheHits += b.MLCacheHits
	a.MLCacheMiss += b.MLCacheMiss
	a.FeatHits += b.FeatHits
	a.FeatMisses += b.FeatMisses
	return a
}

// chaseLayer records the chase and classifier counters of Engine.Stats.
func chaseLayer(l map[string]float64, s chase.Stats) {
	l["chase.valuations"] = float64(s.Valuations)
	l["chase.extensions"] = float64(s.Extensions)
	l["chase.extensions_per_valuation"] = ratio(float64(s.Extensions), float64(s.Valuations))
	l["chase.rounds"] = float64(s.Rounds)
	l["chase.deps_recorded"] = float64(s.DepsRecorded)
	l["chase.deps_fired"] = float64(s.DepsFired)
	l["chase.deps_dropped"] = float64(s.DepsDropped)
	l["chase.dep_fire_ratio"] = ratio(float64(s.DepsFired), float64(s.DepsRecorded))
	l["chase.plan_reorders"] = float64(s.PlanReorders)
	l["mlpred.calls"] = float64(s.MLCacheMiss)
	l["mlpred.pair_hit_ratio"] = ratio(float64(s.MLCacheHits), float64(s.MLCacheHits+s.MLCacheMiss))
	l["mlpred.feature_hit_ratio"] = ratio(float64(s.FeatHits), float64(s.FeatHits+s.FeatMisses))
}

// dmatchLayer records the HyPart, MQO, DMatch and wire numbers a DMatch
// Result carries. seq is the sequential reference's match time, size is
// |D|, and match is the call's wall time.
func dmatchLayer(l map[string]float64, seq time.Duration, size int, match time.Duration, res *dcer.ParallelResult) {
	ps := res.PartitionStats
	l["hypart.partition_s"] = res.PartitionTime.Seconds()
	l["hypart.replication"] = ratio(float64(ps.PlacedTuples), float64(size))
	l["hypart.speedup_ceiling"] = ratio(float64(size), float64(ps.MaxFragment))
	l["hypart.fragment_skew"] = ratio(float64(ps.MaxFragment), float64(ps.MinFragment))
	l["mqo.hash_reuse_ratio"] = ratio(float64(ps.HashLookups), float64(ps.HashComputations))
	l["mqo.hash_fns_shared"] = float64(ps.HashFnsBaseline - ps.HashFns)

	var wall, route, busy, idle int64
	for _, st := range res.Timeline().Steps {
		wall += st.WallNs
		route += st.RouteNs
		for _, w := range st.Workers {
			busy += w.BusyNs
			idle += w.IdleNs
		}
	}
	l["dmatch.er_s"] = res.ERTime.Seconds()
	l["dmatch.step_wall_s"] = float64(wall) / 1e9
	l["dmatch.route_s"] = float64(route) / 1e9
	l["dmatch.worker_busy_s"] = float64(busy) / 1e9
	l["dmatch.worker_idle_ratio"] = ratio(float64(idle), float64(busy+idle))
	l["dmatch.supersteps"] = float64(res.Supersteps)
	l["dmatch.messages_routed"] = float64(res.MessagesRouted)
	l["dmatch.messages_deduped"] = float64(res.MessagesDeduped)
	l["dmatch.fact_yield"] = ratio(float64(len(res.Matches)+len(res.Validated)), float64(res.FactsProduced))
	l["dmatch.rebalances"] = float64(len(res.Rebalances))
	l["dmatch.recoveries"] = float64(len(res.Recoveries))
	l["dmatch.speedup"] = ratio(seq.Seconds(), match.Seconds())
	l["dmatch.dist_overhead_s"] = (match - res.PartitionTime - time.Duration(wall)).Seconds()

	w := res.Wire
	l["wire.bytes"] = float64(w.BytesOut + w.BytesIn)
	l["wire.frames"] = float64(w.FramesOut + w.FramesIn)
	l["wire.codec_s"] = float64(w.EncodeNs+w.DecodeNs) / 1e9
	l["wire.dict_ratio"] = ratio(float64(w.NaiveSymBytes), float64(w.DictBytes))
}

// classifierNs times the registry's public Classifier.Predict over a
// seeded sample of the attribute pairs the rules' ML predicates compare:
// random tuple pairs from each predicate's two relations.
func classifierNs(d *dcer.Dataset, rules []*dcer.Rule, reg *dcer.ClassifierRegistry, seed int64) (float64, error) {
	type call struct {
		cl          dcer.Classifier
		left, right []dcer.Value
	}
	rng := rand.New(rand.NewSource(seed))
	var calls []call
	for _, r := range rules {
		for _, p := range r.Body {
			if p.Kind != rule.PredML {
				continue
			}
			cl, err := reg.Get(p.Model)
			if err != nil {
				return 0, err
			}
			ra := d.Relations[r.Vars[p.V1].RelIdx].Tuples
			rb := d.Relations[r.Vars[p.V2].RelIdx].Tuples
			for k := 0; k < 1000; k++ {
				ta, tb := ra[rng.Intn(len(ra))], rb[rng.Intn(len(rb))]
				c := call{cl: cl}
				for _, a := range p.A1Vec {
					c.left = append(c.left, ta.Val(a))
				}
				for _, b := range p.A2Vec {
					c.right = append(c.right, tb.Val(b))
				}
				calls = append(calls, c)
			}
		}
	}
	if len(calls) == 0 {
		return 0, nil
	}
	var n int
	t0 := time.Now()
	for n == 0 || time.Since(t0) < 100*time.Millisecond {
		for _, c := range calls {
			c.cl.Predict(c.left, c.right)
		}
		n += len(calls)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}
