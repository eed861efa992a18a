package dmatch_test

import (
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/eval"
	"dcer/internal/health"
	"dcer/internal/mlpred"
)

// TestDMatchHealthObservatory runs a parallel match over a TPC-H dataset
// with its planted truth threaded into the monitor and asserts the full
// observatory: the master's global union-find auditor and every
// worker-engine auditor pass, no stalls fire, the accuracy gauges see
// both matched pairs and recall probes, and the diagnosis is healthy.
func TestDMatchHealthObservatory(t *testing.T) {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.1, Dup: 0.3, Seed: 1})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	mon := health.NewMonitor(health.Options{
		DiagnosisDir: t.TempDir(),
		Truth:        eval.NewTruth(g.Truth),
		SampleSize:   1 << 20,
		Seed:         1,
	})
	mon.Start()
	defer mon.Stop()

	res, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(),
		dmatch.Options{Workers: 2, Provenance: true, Health: mon})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps == 0 {
		t.Fatal("run did no supersteps")
	}

	rep := mon.Report()
	if !rep.Attached {
		t.Fatal("report not attached")
	}
	byName := make(map[string]health.CheckReport, len(rep.Checks))
	for _, c := range rep.Checks {
		byName[c.Name] = c
	}
	for _, name := range []string{"unionfind_roots", "gamma_provenance", "depstore_bytes", "plan_order", "global_unionfind"} {
		c, ok := byName[name]
		if !ok {
			t.Errorf("check %s not registered", name)
			continue
		}
		if c.Runs == 0 {
			t.Errorf("check %s never ran", name)
		}
		if c.Status != health.StatusPass.String() || c.Violations != 0 {
			t.Errorf("check %s: status %s, %d violation(s): %s", name, c.Status, c.Violations, c.Detail)
		}
	}
	if rep.Stalls != 0 {
		t.Errorf("healthy run recorded %d stall(s)", rep.Stalls)
	}

	a := rep.Accuracy
	if a == nil {
		t.Fatal("truth was threaded but the report has no accuracy section")
	}
	if a.SampledTP == 0 {
		t.Error("accuracy observatory sampled no true positives on a duplicated dataset")
	}
	if a.RecallSampled == 0 {
		t.Error("recall probe sampled no truth pairs")
	}
	if a.Precision <= 0 || a.Precision > 1 {
		t.Errorf("precision gauge = %v, want (0, 1]", a.Precision)
	}

	if d := health.Diagnose(rep); !d.Healthy() {
		t.Errorf("healthy DMatch run diagnosed unhealthy:\n%s", d)
	}
}

// TestDistributedHealthAudit checks a distributed run gets the master's
// health layer from the shared superstep loop: the sampled audit of the
// global union-find runs every superstep and passes.
func TestDistributedHealthAudit(t *testing.T) {
	g, rules := tpchWorkload(t)
	mon := health.NewMonitor(health.Options{DiagnosisDir: t.TempDir(), SampleSize: 1 << 20, Seed: 1})
	errs := make(chan error, 2)
	res, err := dmatch.RunDistributed(g.D, rules, mlpred.DefaultRegistry(),
		dmatch.Options{Workers: 2, Health: mon},
		dmatch.DistOptions{Spawn: spawnLocalWorkers(t, nil, errs)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if werr := <-errs; werr != nil {
			t.Fatalf("worker: %v", werr)
		}
	}
	for _, c := range mon.Report().Checks {
		if c.Name != "global_unionfind" {
			continue
		}
		if c.Runs != int64(res.Supersteps) {
			t.Errorf("global_unionfind ran %d times over %d supersteps", c.Runs, res.Supersteps)
		}
		if c.Status != health.StatusPass.String() || c.Violations != 0 {
			t.Errorf("global_unionfind: status %s, %d violation(s): %s", c.Status, c.Violations, c.Detail)
		}
		return
	}
	t.Fatal("distributed run recorded no global_unionfind audit")
}
