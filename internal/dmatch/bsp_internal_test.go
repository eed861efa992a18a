package dmatch

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/telemetry"
)

// failAfterFirst is an in-process worker that dies after its first
// delta, standing in for a crashed worker process without any TCP.
type failAfterFirst struct {
	worker
	steps int
}

func (f *failAfterFirst) step(step int, inbox []chase.Fact, tc telemetry.TraceContext) ([]chase.Fact, time.Duration, error) {
	if f.steps++; f.steps > 1 {
		return nil, 0, errors.New("injected worker failure")
	}
	return f.worker.step(step, inbox, tc)
}

// canonFacts and canonClasses render fact sets and class partitions
// order-insensitively: a recovery changes the fold order, not the sets.
func canonFacts(facts []chase.Fact) string {
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = fmt.Sprintf("%d:%d:%d:%s", f.Kind, f.A, f.B, f.Model)
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

func canonClasses(classes [][]relation.TID) string {
	out := make([]string, len(classes))
	for i, c := range classes {
		c = append([]relation.TID(nil), c...)
		sort.Slice(c, func(a, b int) bool { return c[a] < c[b] })
		out[i] = fmt.Sprint(c)
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

// TestInProcessRecovery drives the shared superstep loop with worker 1
// swapped for one that fails after its first delta, at w ∈ {2, 3, 4}: the
// loop's one membership change (reassign, rebuild, replay) must record the
// recovery and still reach the fault-free Γ.
func TestInProcessRecovery(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.04, Dup: 0.4, Seed: 7})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	reg := mlpred.DefaultRegistry()
	for _, n := range []int{2, 3, 4} {
		opts := Options{Workers: n}
		want, err := Run(g.D, rules, reg, opts)
		if err != nil {
			t.Fatalf("n=%d fault-free: %v", n, err)
		}
		if want.Supersteps < 2 {
			t.Fatalf("n=%d: workload converges in %d superstep(s); no step left to fail in", n, want.Supersteps)
		}
		got, err := drive(g.D, rules, n, opts, nil, nil, func(idSpace int, rtc telemetry.TraceContext) ([]worker, error) {
			ws := localWorkers(g.D, rules, reg, opts, n, idSpace, rtc, nil)
			ws[1] = &failAfterFirst{worker: ws[1]}
			return ws, nil
		})
		if err != nil {
			t.Fatalf("n=%d with a failing worker: %v", n, err)
		}
		if len(got.Recoveries) != 1 {
			t.Fatalf("n=%d: %d recoveries recorded, want 1", n, len(got.Recoveries))
		}
		if rec := got.Recoveries[0]; rec.Worker != 1 || rec.BlocksMoved == 0 || rec.WorkersRebuilt == 0 {
			t.Fatalf("n=%d: recovery event %+v: want worker 1 with moved blocks and rebuilt survivors", n, rec)
		}
		if canonFacts(got.Matches) != canonFacts(want.Matches) {
			t.Errorf("n=%d: post-recovery match set diverges from the fault-free run", n)
		}
		if canonFacts(got.Validated) != canonFacts(want.Validated) {
			t.Errorf("n=%d: post-recovery validated set diverges from the fault-free run", n)
		}
		if canonClasses(got.Classes()) != canonClasses(want.Classes()) {
			t.Errorf("n=%d: post-recovery classes diverge from the fault-free run", n)
		}
	}
}
