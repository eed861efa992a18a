package dmatch_test

import (
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
	"dcer/internal/telemetry"
)

// TestParallelTraceCausality is the causal-trace property test: a DMatch
// run with four workers and a registry attached must leave a span ring
// in which every non-root span's parent ID resolves to a recorded span
// of the same trace, and in which at least two distinct worker lanes
// appear — i.e. the trace really is a tree spread over the workers, not
// a flat list on one lane.
func TestParallelTraceCausality(t *testing.T) {
	d, _ := datagen.PaperExample()
	rules, err := datagen.PaperRules(d.DB)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	if _, err := dmatch.Run(d, rules, mlpred.DefaultRegistry(), dmatch.Options{
		Workers: 4,
		Metrics: reg,
	}); err != nil {
		t.Fatal(err)
	}

	spans := reg.Tracer().Snapshot()
	if len(spans) == 0 {
		t.Fatal("a traced run recorded no spans")
	}

	// Index span IDs per trace, then check parent resolution. The ring
	// is bounded, so a parent could in principle be evicted — but the
	// paper example is far below DefaultTraceCap, so here every parent
	// must be present.
	ids := map[uint64]map[uint64]bool{} // trace ID → span IDs
	for _, sp := range spans {
		if sp.TraceID == 0 {
			continue
		}
		if sp.SpanID == 0 {
			t.Errorf("span %q has a trace ID but no span ID", sp.Name)
			continue
		}
		if ids[sp.TraceID] == nil {
			ids[sp.TraceID] = map[uint64]bool{}
		}
		if ids[sp.TraceID][sp.SpanID] {
			t.Errorf("duplicate span ID %d in trace %d", sp.SpanID, sp.TraceID)
		}
		ids[sp.TraceID][sp.SpanID] = true
	}
	if len(ids) == 0 {
		t.Fatal("no causal spans recorded")
	}
	var roots, workerLanes int
	lanes := map[int32]bool{}
	for _, sp := range spans {
		if sp.TraceID == 0 {
			continue
		}
		if sp.ParentID == 0 {
			roots++
		} else if !ids[sp.TraceID][sp.ParentID] {
			t.Errorf("span %q (trace %d): parent %d not recorded in the same trace",
				sp.Name, sp.TraceID, sp.ParentID)
		}
		if sp.PID == telemetry.PIDDMatch && sp.TID > 0 && !lanes[sp.TID] {
			lanes[sp.TID] = true
			workerLanes++
		}
	}
	if roots == 0 {
		t.Error("no root span (dmatch.Run) recorded")
	}
	if workerLanes < 2 {
		t.Errorf("got %d distinct dmatch worker lanes, want >= 2", workerLanes)
	}

	// The expected structural spans of a parallel run must all appear.
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"dmatch.Run", "dmatch.superstep", "dmatch.route", "hypart.Partition", "chase.Deduce"} {
		if !names[want] {
			t.Errorf("missing expected span %q in trace", want)
		}
	}
}

// TestDistributedTraceSpans checks the master side of a distributed run
// traces through the shared superstep loop: given a trace context, it
// records dmatch.Run → dmatch.superstep → dmatch.route, and every parent
// resolves to a recorded span of the same trace.
func TestDistributedTraceSpans(t *testing.T) {
	g, rules := tpchWorkload(t)
	reg := telemetry.NewRegistry()
	errs := make(chan error, 2)
	if _, err := dmatch.RunDistributed(g.D, rules, mlpred.DefaultRegistry(),
		dmatch.Options{Workers: 2, Trace: reg.Tracer().NewTrace(telemetry.PIDDMatch, 0)},
		dmatch.DistOptions{Spawn: spawnLocalWorkers(t, nil, errs)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if werr := <-errs; werr != nil {
			t.Fatalf("worker: %v", werr)
		}
	}
	spans := reg.Tracer().Snapshot()
	byID := map[uint64]telemetry.SpanRecord{}
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	parentName := func(sp telemetry.SpanRecord) string {
		p, ok := byID[sp.ParentID]
		if !ok || p.TraceID != sp.TraceID {
			return ""
		}
		return p.Name
	}
	count := map[string]int{}
	for _, sp := range spans {
		if sp.ParentID != 0 && parentName(sp) == "" {
			t.Errorf("span %q: parent %d not recorded in trace %d", sp.Name, sp.ParentID, sp.TraceID)
		}
		switch sp.Name {
		case "dmatch.superstep":
			if got := parentName(sp); got != "dmatch.Run" {
				t.Errorf("dmatch.superstep parented by %q, want dmatch.Run", got)
			}
		case "dmatch.route":
			if got := parentName(sp); got != "dmatch.superstep" {
				t.Errorf("dmatch.route parented by %q, want dmatch.superstep", got)
			}
		}
		count[sp.Name]++
	}
	for _, name := range []string{"dmatch.Run", "dmatch.superstep", "dmatch.route", "hypart.Partition"} {
		if count[name] == 0 {
			t.Errorf("distributed trace has no %s span", name)
		}
	}
}
