package dmatch_test

import (
	"math"
	"testing"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// TestRoutingDedupGammaEquality is the routing acceptance check: batched
// + deduped routing leaves Γ and the class partition byte-identical to
// the sequential chase at w ∈ {2, 4, 8}, and the timeline accounts for
// every routed and suppressed delivery.
func TestRoutingDedupGammaEquality(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.04, Dup: 0.4, Seed: 11})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := chase.New(g.D, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	seq.Run()
	want := classSignature(seq.Classes())

	for _, n := range []int{2, 4, 8} {
		conc, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: n})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := classSignature(conc.Classes()); got != want {
			t.Errorf("n=%d: concurrent routing classes diverge from sequential chase", n)
		}
		// Every routed or suppressed delivery must appear in the
		// timeline.
		var routed, deduped int64
		for _, ss := range conc.Timeline().Steps {
			routed += ss.MessagesRouted
			deduped += ss.MessagesDeduped
		}
		if routed != conc.MessagesRouted || deduped != conc.MessagesDeduped {
			t.Errorf("n=%d: timeline sums %d/%d, result %d/%d",
				n, routed, deduped, conc.MessagesRouted, conc.MessagesDeduped)
		}
		if conc.MessagesDeduped < 0 {
			t.Errorf("n=%d: negative dedup count %d", n, conc.MessagesDeduped)
		}
	}
}

// TestWorkersExceedVirtualBlocks covers the degenerate end of the worker
// range: more workers than non-empty virtual blocks leaves some fragments
// empty, and the run must still converge to the sequential Γ with finite
// skew ratios (the zero-busy guard in the timeline).
func TestWorkersExceedVirtualBlocks(t *testing.T) {
	str := relation.TypeString
	a := func(n string) relation.Attribute { return relation.Attribute{Name: n, Type: str} }
	db := relation.MustDatabase(relation.MustSchema("R", "rk", a("rk"), a("x")))
	build := func() *relation.Dataset {
		d := relation.NewDataset(db)
		d.MustAppend("R", relation.S("r0"), relation.S("u"))
		d.MustAppend("R", relation.S("r1"), relation.S("u"))
		d.MustAppend("R", relation.S("r2"), relation.S("v"))
		return d
	}
	rules, err := rule.ParseResolved("same: R(a) ^ R(b) ^ a.x = b.x -> a.id = b.id\n", db)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := chase.New(build(), rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	seq.Run()
	want := classSignature(seq.Classes())

	res, err := dmatch.Run(build(), rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionStats.Blocks >= 32 {
		t.Fatalf("instance grew: %d blocks no longer below the worker count", res.PartitionStats.Blocks)
	}
	empty := 0
	for _, st := range res.WorkerStats {
		if st.Valuations == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Error("expected at least one idle worker with an empty fragment")
	}
	if got := classSignature(res.Classes()); got != want {
		t.Errorf("classes diverge with empty fragments present")
	}
	for _, ss := range res.Timeline().Steps {
		if math.IsNaN(ss.SkewRatio) || math.IsInf(ss.SkewRatio, 0) {
			t.Fatalf("superstep %d: skew ratio %v not finite", ss.Step, ss.SkewRatio)
		}
	}
}
