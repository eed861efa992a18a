// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section VI), plus ablation benches for the design choices
// called out in DESIGN.md (MQO sharing, dependency-store capacity,
// replication cap). Run with:
//
//	go test -bench=. -benchmem
//
// The per-experiment drivers live in internal/experiments and are shared
// with cmd/experiments, which prints the full tables.
package dcer_test

import (
	"reflect"
	"strconv"
	"testing"

	"dcer"
	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/experiments"
	"dcer/internal/hypart"
	"dcer/internal/mlpred"
)

// benchCfg keeps every driver at bench scale.
var benchCfg = experiments.Config{Scale: 0.1, Workers: 8, Seed: 1}

func BenchmarkTableV_Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableV(benchCfg)
	}
}

func BenchmarkTableVI_VaryDup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableVI(benchCfg)
	}
}

func BenchmarkFig6ab_Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6AB(benchCfg)
	}
}

func BenchmarkFig6cd_VaryDup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6CD(benchCfg)
	}
}

func BenchmarkFig6ef_VaryPredicates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6EF(benchCfg)
	}
}

func BenchmarkFig6gh_VaryRules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6GH(benchCfg)
	}
}

func BenchmarkFig6ij_VaryWorkers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6IJ(benchCfg)
	}
}

func BenchmarkFig6kl_VaryScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6KL(experiments.Config{Scale: 0.05, Workers: 8, Seed: 1})
	}
}

func BenchmarkExp2_Partitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Partitioning(benchCfg)
	}
}

// --- Component benchmarks -------------------------------------------------

func tpchFixture(b *testing.B, scale float64) (*datagen.Generated, []*dcer.Rule) {
	b.Helper()
	if testing.Short() && scale > 0.5 {
		b.Skipf("scale %.1f fixture is heavyweight; run benchmarks without -short", scale)
	}
	g := datagen.TPCH(datagen.TPCHOptions{Scale: scale, Dup: 0.3, Seed: 1})
	rules, err := g.Rules()
	if err != nil {
		b.Fatal(err)
	}
	return g, rules
}

// BenchmarkDeduceParallel measures the first-pass Deduce hot path on a
// multi-rule workload of ≥50k tuples (TPCH scale 2.0 ≈ 57k tuples, 6
// rules), sequential rule enumeration vs the concurrent
// snapshot-enumerate-merge pass, and asserts both reach the identical
// equivalence relation. The seed (pre-optimization) numbers live in
// BENCH_1.json for trajectory comparisons.
func BenchmarkDeduceParallel(b *testing.B) {
	g, rules := tpchFixture(b, 2.0)
	classes := make(map[string]string)
	for _, mode := range []struct {
		name string
		seq  bool
	}{{"sequential", true}, {"concurrent", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var last *chase.Engine
			for i := 0; i < b.N; i++ {
				eng, err := chase.New(g.D, rules, mlpred.DefaultRegistry(),
					chase.Options{ShareIndexes: true, SequentialDeduce: mode.seq})
				if err != nil {
					b.Fatal(err)
				}
				eng.Deduce()
				last = eng
			}
			b.StopTimer()
			classes[mode.name] = dcer.CanonicalClasses(last.Classes())
		})
	}
	if a, c := classes["sequential"], classes["concurrent"]; a != "" && c != "" && a != c {
		b.Fatal("sequential and concurrent Deduce disagree on the equivalence classes")
	}
}

// BenchmarkIncDeduce measures the incremental algorithm A_Δ: a full
// chase's facts are replayed through IncDeduce into a fresh engine, which
// exercises the update-driven drain that dominates the Fig. 6 drivers —
// with the batched parallel drain (default) and the sequential drain as
// A/B. Both must converge to the full chase's equivalence classes.
func BenchmarkIncDeduce(b *testing.B) {
	g, rules := tpchFixture(b, 0.2)
	reg := mlpred.DefaultRegistry()
	base, err := chase.New(g.D, rules, reg, chase.Options{ShareIndexes: true})
	if err != nil {
		b.Fatal(err)
	}
	facts := base.Deduce()
	want := dcer.CanonicalClasses(base.Classes())
	for _, mode := range []struct {
		name string
		opts chase.Options
	}{
		// An explicit DrainParallelMin forces the batched path even where
		// the default would fall back to sequential (GOMAXPROCS=1 hosts).
		{"parallel", chase.Options{ShareIndexes: true, DrainParallelMin: chase.DefaultDrainParallelMin}},
		{"sequential", chase.Options{ShareIndexes: true, SequentialDrain: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var last *chase.Engine
			for i := 0; i < b.N; i++ {
				eng, err := chase.New(g.D, rules, reg, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				eng.IncDeduce(facts)
				last = eng
			}
			b.StopTimer()
			if got := dcer.CanonicalClasses(last.Classes()); got != want {
				b.Fatal("IncDeduce classes diverge from the full chase")
			}
		})
	}
}

// BenchmarkSequentialMatch measures the sequential Match engine on TPCH.
func BenchmarkSequentialMatch(b *testing.B) {
	g, rules := tpchFixture(b, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := chase.New(g.D, rules, mlpred.DefaultRegistry(), chase.Options{ShareIndexes: true})
		if err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}

// BenchmarkParallelDMatch measures the BSP engine at several worker counts
// (the Theorem 7 parallel-scalability claim in benchmark form).
func BenchmarkParallelDMatch(b *testing.B) {
	g, rules := tpchFixture(b, 0.2)
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(),
					dmatch.Options{Workers: n}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHyPart measures partitioning alone: the MQO-sharing ablation
// and the partition pass at 1 and 8 shards. Before any timing it asserts
// the sharded pass is byte-identical to the sequential one (the
// equivalence guard CI runs as a bench smoke).
func BenchmarkHyPart(b *testing.B) {
	g, rules := tpchFixture(b, 0.2)
	seq, err := hypart.Partition(g.D, rules, 16, hypart.Options{Share: true, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	par, err := hypart.Partition(g.D, rules, 16, hypart.Options{Share: true, Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Fragments, par.Fragments) ||
		!reflect.DeepEqual(seq.RuleFragments, par.RuleFragments) {
		b.Fatal("sharded Partition diverges from the sequential path")
	}
	for _, share := range []bool{true, false} {
		name := "mqo"
		if !share {
			name = "noMQO"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hypart.Partition(g.D, rules, 16, hypart.Options{Share: share}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, shards := range []int{1, 8} {
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hypart.Partition(g.D, rules, 16, hypart.Options{Share: true, Shards: shards}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDepStore sweeps the dependency-store capacity K: K=0
// forces the update-driven re-scan path everywhere.
func BenchmarkAblationDepStore(b *testing.B) {
	g, rules := tpchFixture(b, 0.1)
	for _, k := range []int{-1, 1, 1024, 1 << 20} {
		b.Run(itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := chase.New(g.D, rules, mlpred.DefaultRegistry(),
					chase.Options{ShareIndexes: true, MaxDeps: k})
				if err != nil {
					b.Fatal(err)
				}
				eng.Run()
			}
		})
	}
}

// BenchmarkAblationReplicationCap sweeps HyPart's replication cap: higher
// caps spread wide rules over more blocks at the price of more copies.
func BenchmarkAblationReplicationCap(b *testing.B) {
	g, rules := tpchFixture(b, 0.1)
	for _, rc := range []int{1, 2, 4, 8} {
		b.Run(itoa(rc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(),
					dmatch.Options{Workers: 8, ReplicationCap: rc}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMLPredicates measures the classifier battery on product
// descriptions (the dominant per-valuation cost).
func BenchmarkMLPredicates(b *testing.B) {
	a := "ThinkPad X1 Carbon 7th Gen : 14-Inch, 16GB RAM, 512GB Nvme SSD"
	c := "ThinkPad X1 Carbon 7th Gen 14\" - 16 GB RAM - 512 GB SSD"
	b.Run("jaccard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mlpred.Jaccard(a, c)
		}
	})
	b.Run("jaro", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mlpred.JaroWinkler(a, c)
		}
	})
	b.Run("levenshtein", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mlpred.Levenshtein(a, c)
		}
	})
	b.Run("embedding", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mlpred.EmbeddingSim(a, c, mlpred.EmbeddingDim)
		}
	})
}

func itoa(n int) string { return strconv.Itoa(n) }
