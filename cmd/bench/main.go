// Command bench is the repo's performance harness: it benchmarks the
// chase hot path (first-pass Deduce, sequential vs concurrent), the
// incremental IncDeduce drain, the ML caches, the HyPart partitioner
// (seed-era reference vs the packed-key rewrite, sequential and sharded),
// the full parallel DMatch run (in-process, and the DMatchDist arms as
// true separate worker processes over TCP with the binary wire codec),
// the wire codec's symbol dictionary in isolation, and the Fig. 6
// experiment drivers on the synthetic generators, then writes the
// results to a JSON file
// (BENCH_<n>.json by convention, one per perf PR) so the performance
// trajectory of the engine is tracked in-repo. The report also embeds the
// instrumented DMatch run's routing profile (messages routed/deduped,
// route time per superstep) as routing_stats.
//
//	go run ./cmd/bench                   # full run, writes BENCH_10.json
//	go run ./cmd/bench -fig6=false       # hot-path benchmarks only
//	go run ./cmd/bench -scale 1.0 -out /tmp/bench.json
//	go run ./cmd/bench -cpuprofile cpu.out -memprofile mem.out
//	go run ./cmd/bench -repeat 5         # more noise suppression
//	go run ./cmd/bench -telemetry :9090  # live /metrics + pprof while it runs
//	go run ./cmd/bench -arms '^Ingest'   # only arms matching the regex
//	go run ./cmd/bench -mem1m            # 1M-tuple arm under its 1.5 GiB default budget
//	go run ./cmd/bench -plandump         # also print the compiled predicate programs
//
// The Deduce and IncDeduce families carry a plan=off|on A/B: plan=off
// forces Options.InterpretRules (the conjunct-at-a-time rule
// interpreter), plan=on is the default compiled-predicate-plan path.
// The report embeds a per-rule attribution table pairing the two modes'
// dcer_chase_rule_enumerate_ns sums into speedups (plan_attribution)
// and the compiled programs with their observed selectivities
// (plan_report, printed by -plandump).
//
// Besides the timing arms the harness runs storage arms at -memscale
// (default 20, ≈573K tuples): a bulk-ingest arm and a full Deduce arm,
// each recording total allocations, live heap after a forced GC, bytes
// per tuple, and the process peak RSS (VmHWM, reset per arm via
// /proc/self/clear_refs where permitted). -membudget bounds the Deduce
// arm's chase (Options.MemBudgetBytes); -mem1m adds a ~1M-tuple
// ingest+chase arm bounded by -mem1mbudget (default 1.5 GiB). A
// budgeted arm also sets the Go runtime soft memory limit to the
// budget so GC headroom stays inside the same envelope. The memory
// rows land in the report's "memory" section and are delta-printed
// against -prev.
//
// Besides the timings the report embeds the per-stage latency histograms
// of a telemetry-enabled pass (rule enumeration/merge, drain batches, BSP
// routing and worker busy time) and the measured overhead of running
// Deduce with instrumentation attached — the metrics registry, the
// justification (provenance) log, and the health observatory (invariant
// auditors + stall heartbeats + accuracy sampling), each against the same
// interleaved uninstrumented arm; IncDeduce gets its own paired
// health-on/health-off measurement. After writing the JSON it prints a
// stage-attribution table and a delta table against the previous
// BENCH_<n>.json (-prev).
//
// The host class these artifacts are measured on (a shared single-core
// VM) shows ±20% run-to-run variance under external load, so the
// harness measures every benchmark -repeat times (default 3) and
// records the per-benchmark minimum — the least noise-contaminated
// sample, the same rationale as benchstat's use of repeated runs.
//
// The Deduce and IncDeduce benchmarks assert that the sequential and
// parallel paths reach byte-identical equivalence classes before
// reporting numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dcer"
	"dcer/internal/chase"
	"dcer/internal/cliutil"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/eval"
	"dcer/internal/experiments"
	"dcer/internal/health"
	"dcer/internal/hypart"
	"dcer/internal/mlpred"
	"dcer/internal/provenance"
	"dcer/internal/relation"
	"dcer/internal/telemetry"
	"dcer/internal/wire"
)

// logg is the progress logger, configured in main (DCER_LOG / -log).
var logg *telemetry.Logger

// entry is one benchmark measurement.
type entry struct {
	Name            string `json:"name"`
	Ops             int    `json:"ops"`
	NsPerOp         int64  `json:"ns_per_op"`
	BytesPerOp      int64  `json:"bytes_per_op"`
	AllocsPerOp     int64  `json:"allocs_per_op"`
	SimulatedTimeNs int64  `json:"simulated_time_ns,omitempty"`
}

// memEntry is one storage-arm measurement: how much memory a bulk
// ingest or a full chase leaves live, per tuple, and the process peak
// RSS the arm drove. NsTotal/AllocsTotal cover the whole arm (these
// arms run once, not under testing.Benchmark — at scale 20 a single
// Deduce is tens of seconds and the interesting axis is bytes, not
// noise-suppressed ns).
type memEntry struct {
	Name            string  `json:"name"`
	Scale           float64 `json:"scale"`
	Tuples          int     `json:"tuples"`
	Facts           int     `json:"facts,omitempty"`
	NsTotal         int64   `json:"ns_total"`
	AllocsTotal     int64   `json:"allocs_total"`
	AllocBytesTotal int64   `json:"alloc_bytes_total"`
	// LiveHeapBytes is the absolute HeapAlloc after a forced GC at the
	// end of the arm; DeltaLiveBytes is the arm's own addition over the
	// heap it started from, and BytesPerTuple = DeltaLiveBytes / Tuples.
	LiveHeapBytes  int64   `json:"live_heap_bytes"`
	DeltaLiveBytes int64   `json:"delta_live_bytes"`
	BytesPerTuple  float64 `json:"bytes_per_tuple"`
	// PeakRSSBytes is VmHWM from /proc/self/status after the arm.
	// PeakRSSReset records whether the peak was reset at arm start
	// (requires /proc/self/clear_refs write permission); when false the
	// peak accumulates across arms and only the last arm's value is a
	// faithful per-arm number.
	PeakRSSBytes   int64 `json:"peak_rss_bytes"`
	PeakRSSReset   bool  `json:"peak_rss_reset"`
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
}

// stageHist is one per-stage latency histogram snapshot from the
// telemetry-enabled pass, embedded in the report so stage attribution
// travels with the timings.
type stageHist struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Count  uint64  `json:"count"`
	Sum    float64 `json:"sum"`
	P50    uint64  `json:"p50"`
	P99    uint64  `json:"p99"`
	Max    uint64  `json:"max"`
}

// routingStats summarizes the instrumented DMatch run's message routing:
// batch sizes, dedup effectiveness, and the master's per-superstep route
// cost, so the routing trajectory is tracked next to the timings.
type routingStats struct {
	Workers         int   `json:"workers"`
	Supersteps      int   `json:"supersteps"`
	MessagesRouted  int64 `json:"messages_routed"`
	MessagesDeduped int64 `json:"messages_deduped"`
	RouteNsTotal    int64 `json:"route_ns_total"`
	RouteNsPerStep  int64 `json:"route_ns_per_step"`
}

// report is the BENCH_<n>.json document.
type report struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// GOMAXPROCS is the benchmark-time scheduler width and NumCPU the
	// machine's logical core count — recorded separately because the
	// concurrent arms' speedups only mean something relative to the
	// cores actually available (cmd/benchdiff warns when comparing
	// reports whose values differ).
	GOMAXPROCS       int     `json:"gomaxprocs"`
	NumCPU           int     `json:"numcpu"`
	Scale            float64 `json:"scale"`
	Repeat           int     `json:"repeat"`
	Tuples           int     `json:"tuples"`
	Rules            int     `json:"rules"`
	ClassesIdentical bool    `json:"classes_identical"`
	Benchmarks       []entry `json:"benchmarks"`
	// Memory holds the storage-arm rows (bulk ingest, scale-20 Deduce,
	// optional 1M budgeted chase): live-heap bytes per tuple and peak
	// RSS, the axes the columnar-storage work is measured on.
	Memory []memEntry `json:"memory,omitempty"`
	// IncDeduceStats snapshots the engine counters of the best parallel
	// IncDeduce run: ML pair-cache hits/misses/size and feature-store
	// hits/misses/entries, so the cache effectiveness is tracked in-repo
	// next to the timings.
	IncDeduceStats *chase.Stats `json:"incdeduce_stats,omitempty"`
	// TelemetryOverheadPct is ns/op of Deduce/telemetry relative to
	// Deduce/telemetry_base, its paired uninstrumented arm: the cost of
	// running the same chase with the metrics registry, per-rule
	// histograms, and tracer attached. The arms interleave chase by
	// chase (each run after a forced GC) into triples — base,
	// telemetry, provenance back to back — and the pct is the median
	// per-triple ratio over every triple of every pass, so a load
	// spike corrupting one triple is discarded instead of skewing a
	// sum.
	TelemetryOverheadPct float64 `json:"telemetry_overhead_pct"`
	// ProvenanceOverheadPct is the same paired measurement for
	// Deduce/provenance — the chase with an unbounded justification log
	// attached — against the shared uninstrumented arm. The acceptance
	// budget for capture is ≤ 5%.
	ProvenanceOverheadPct float64 `json:"provenance_overhead_pct"`
	// HealthOverheadPct is the same paired measurement for Deduce/health —
	// the chase running under a started health monitor (drain heartbeat,
	// periodic invariant auditors, accuracy sampling against the planted
	// truth; engine metrics stay nil so the health cost is isolated) —
	// against the shared uninstrumented arm. Budget ≤ 5%.
	HealthOverheadPct float64 `json:"health_overhead_pct"`
	// HealthIncOverheadPct is the paired health-on/health-off measurement
	// over the incremental drain (IncDeduce/health vs IncDeduce/health_base,
	// interleaved pairs, median per-pair ratio). Budget ≤ 5%.
	HealthIncOverheadPct float64 `json:"health_inc_overhead_pct"`
	// RoutingStats snapshots the instrumented DMatch run's routing
	// profile (messages routed/deduped, route time per superstep), from
	// the same pass as StageHistograms.
	RoutingStats *routingStats `json:"routing_stats,omitempty"`
	// WireStats snapshots the wire-level counters of each distributed
	// DMatchDist arm (bytes and frames actually on the wire, encode and
	// decode time, dictionary effectiveness), keyed by arm name, from the
	// same pass whose timing the arm kept.
	WireStats map[string]wire.Snapshot `json:"wire_stats,omitempty"`
	// WireDictRatio is the codec arm's measured symbol compression:
	// what re-sending every ML fact's model string inline would cost,
	// over the dictionary bytes plus one varint id per fact actually
	// shipped. Acceptance: ≥ 3.
	WireDictRatio float64 `json:"wire_dict_ratio,omitempty"`
	// StageHistograms are the per-stage latency histograms of the
	// telemetry-enabled pass (chase rule enumeration/merge, drain
	// batches, DMatch routing and worker busy time, HyPart shape).
	StageHistograms []stageHist `json:"stage_histograms,omitempty"`
	// PlanAttribution is the per-rule enumerate-time A/B between the rule
	// interpreter and the compiled predicate plans: one telemetry-attached
	// Deduce per mode, per-rule dcer_chase_rule_enumerate_ns sums paired
	// into speedups, with the plan-side predicate-eval and reorder counts.
	PlanAttribution []planRuleRow `json:"plan_attribution,omitempty"`
	// PlanReport snapshots the compiled predicate programs of the plan=on
	// attribution run — per-variable step order with observed pass/fail
	// selectivities (also printed by -plandump).
	PlanReport *chase.PlanReport `json:"plan_report,omitempty"`
	// SeedBaseline carries the measurements taken at the growth seed
	// (before PR 1), on the same host class, for trajectory comparison;
	// PR1Baseline carries the BENCH_1.json numbers forward the same way.
	SeedBaseline []entry `json:"seed_baseline"`
	PR1Baseline  []entry `json:"pr1_baseline"`
	Notes        string  `json:"notes"`
}

// seedBaseline was measured at the seed commit (pre PR 1) on the same
// dataset (TPCH scale 2.0, Dup 0.3, seed 1 → 57336 tuples, 6 rules) and
// host class (single-core 2.1 GHz Xeon). Deduce had no concurrent mode
// then, so the sequential number doubles as the seed hot-path number.
var seedBaseline = []entry{
	{Name: "Deduce/sequential@seed", Ops: 3, NsPerOp: 2226823835, BytesPerOp: 119643338, AllocsPerOp: 4343969},
	{Name: "DMatch/workers=8@seed", Ops: 3, NsPerOp: 6390755182, BytesPerOp: 525228584, AllocsPerOp: 14412321},
}

// pr1Baseline carries the BENCH_1.json measurements (PR 1: parallel
// Deduce + benchmark harness) forward, same dataset and host class.
// BENCH_1.json was a single-shot run, so each number carries the full
// run-to-run variance of the host.
var pr1Baseline = []entry{
	{Name: "Deduce/sequential@pr1", Ops: 1, NsPerOp: 1015453634, BytesPerOp: 68800568, AllocsPerOp: 642886},
	{Name: "Deduce/concurrent@pr1", Ops: 2, NsPerOp: 910244517, BytesPerOp: 106206800, AllocsPerOp: 592040},
	{Name: "DMatch/workers=1@pr1", Ops: 2, NsPerOp: 935345041, BytesPerOp: 127518144, AllocsPerOp: 765996, SimulatedTimeNs: 934009951},
	{Name: "DMatch/workers=8@pr1", Ops: 1, NsPerOp: 3097758138, BytesPerOp: 492571408, AllocsPerOp: 8590142, SimulatedTimeNs: 1239973263},
	{Name: "Fig6ab@pr1", Ops: 1, NsPerOp: 1668058948, BytesPerOp: 303708960, AllocsPerOp: 7323815},
	{Name: "Fig6cd@pr1", Ops: 1, NsPerOp: 7763902213, BytesPerOp: 1655836248, AllocsPerOp: 31746956},
	{Name: "Fig6ef@pr1", Ops: 1, NsPerOp: 1858777470, BytesPerOp: 524741304, AllocsPerOp: 11647929},
	{Name: "Fig6gh@pr1", Ops: 1, NsPerOp: 21496055151, BytesPerOp: 4197169360, AllocsPerOp: 102110321},
	{Name: "Fig6ij@pr1", Ops: 1, NsPerOp: 34271023613, BytesPerOp: 6302184392, AllocsPerOp: 146772635},
	{Name: "Fig6kl@pr1", Ops: 1, NsPerOp: 58820695233, BytesPerOp: 9841052352, AllocsPerOp: 143923008},
}

// planRuleRow is one row of the per-rule plan attribution table.
type planRuleRow struct {
	Rule      string  `json:"rule"`
	InterpNs  float64 `json:"interp_ns"`
	PlanNs    float64 `json:"plan_ns"`
	Speedup   float64 `json:"speedup"`
	PredEvals int64   `json:"plan_preds_evaluated"`
	Reorders  int64   `json:"plan_reorders"`
}

// runPlanAttribution runs one telemetry-attached Deduce per mode — the
// rule interpreter, then the compiled plans — and pairs the per-rule
// dcer_chase_rule_enumerate_ns sums into a speedup table, annotated with
// the plan run's per-rule predicate-eval and adaptive-reorder counts.
func runPlanAttribution(g *datagen.Generated, rules []*dcer.Rule, reg *mlpred.Registry) ([]planRuleRow, *chase.PlanReport) {
	perRule := func(interpret bool) (map[string]float64, *chase.Engine) {
		treg := telemetry.NewRegistry()
		eng, err := chase.New(g.D, rules, reg, chase.Options{
			ShareIndexes: true, Metrics: treg, InterpretRules: interpret,
		})
		if err != nil {
			fatal(err)
		}
		eng.Deduce()
		sums := map[string]float64{}
		for _, s := range treg.Snapshot() {
			if s.Name != "dcer_chase_rule_enumerate_ns" || s.Histogram == nil {
				continue
			}
			for _, l := range s.Labels {
				if l.Key == "rule" {
					sums[l.Value] += s.Histogram.Sum
				}
			}
		}
		return sums, eng
	}
	interp, _ := perRule(true)
	plan, eng := perRule(false)
	prep := eng.PlanReport()
	predEvals := map[string]int64{}
	reorders := map[string]int64{}
	for _, rr := range prep.Rules {
		var evals int64
		for _, v := range rr.Vars {
			for _, pd := range v.Preds {
				evals += pd.Evals
			}
		}
		predEvals[rr.Rule] = evals
		reorders[rr.Rule] = rr.Reorders
	}
	names := make([]string, 0, len(interp))
	for n := range interp {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]planRuleRow, 0, len(names))
	for _, n := range names {
		row := planRuleRow{
			Rule: n, InterpNs: interp[n], PlanNs: plan[n],
			PredEvals: predEvals[n], Reorders: reorders[n],
		}
		if row.PlanNs > 0 {
			row.Speedup = row.InterpNs / row.PlanNs
		}
		rows = append(rows, row)
	}
	return rows, &prep
}

func toEntry(name string, r testing.BenchmarkResult) entry {
	return entry{
		Name:        name,
		Ops:         r.N,
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// pass is one full measurement of every benchmark; the merge over
// repeated passes keeps, per benchmark name, the entry with the minimum
// ns/op.
type pass struct {
	entries        []entry
	incDeduceStats *chase.Stats
	stageHists     []stageHist
	routing        *routingStats
	wireStats      map[string]wire.Snapshot
	dictRatio      float64
	// pairSamples holds this pass's interleaved overhead quads —
	// ns per chase for (base, telemetry, provenance, health), the four
	// runs of each quad back to back so they saw the same external load.
	pairSamples [][4]int64
	// incHealthSamples holds the paired IncDeduce runs — ns per drain for
	// (health off, health on), each pair back to back.
	incHealthSamples [][2]int64
}

// stageSnapshot flattens a registry's populated histograms into the
// report's embedded form.
func stageSnapshot(reg *telemetry.Registry) []stageHist {
	var out []stageHist
	for _, s := range reg.Snapshot() {
		if s.Histogram == nil || s.Histogram.Count == 0 {
			continue
		}
		var lbls []string
		for _, l := range s.Labels {
			lbls = append(lbls, l.Key+"="+l.Value)
		}
		out = append(out, stageHist{
			Name:   s.Name,
			Labels: strings.Join(lbls, ","),
			Count:  s.Histogram.Count,
			Sum:    s.Histogram.Sum,
			P50:    s.Histogram.Quantile(0.5),
			P99:    s.Histogram.Quantile(0.99),
			Max:    s.Histogram.Max,
		})
	}
	return out
}

// armRE, when non-nil, restricts which benchmark arms run (-arms).
var armRE *regexp.Regexp

// benchScale is the -scale the timing dataset was generated at, recorded
// so the DMatchDist worker processes can regenerate the identical
// dataset from the same seed (the distributed handshake fingerprint
// rejects them otherwise).
var benchScale float64

// benchWorkerEnv is the env var that turns a re-exec of this binary into
// a distributed DMatch worker process for the DMatchDist arms.
const benchWorkerEnv = "DCER_BENCH_WORKER"

// benchWorkerMain is the worker half of the DMatchDist arms: regenerate
// the master's dataset from the shared seed, serve supersteps, exit.
func benchWorkerMain() {
	addr := os.Getenv("DCER_BENCH_ADDR")
	id, err := strconv.Atoi(os.Getenv("DCER_BENCH_WORKER_ID"))
	if err != nil {
		fatal(fmt.Errorf("bad DCER_BENCH_WORKER_ID: %w", err))
	}
	scale, err := strconv.ParseFloat(os.Getenv("DCER_BENCH_SCALE"), 64)
	if err != nil {
		fatal(fmt.Errorf("bad DCER_BENCH_SCALE: %w", err))
	}
	g := datagen.TPCH(datagen.TPCHOptions{Scale: scale, Dup: 0.3, Seed: 1})
	rules, err := g.Rules()
	if err != nil {
		fatal(err)
	}
	if err := dmatch.RunWorker(addr, g.D, rules, mlpred.DefaultRegistry(), dmatch.WorkerOptions{Worker: id}); err != nil {
		fatal(err)
	}
	os.Exit(0)
}

// runDistributedArms times the true multi-process DMatch at 2 and 4
// worker processes: each worker is a re-exec of this binary (own address
// space, TCP to the master), so the arm pays real serialization, real
// sockets, and real process scheduling. The arms run once per pass (the
// repeat-and-keep-minimum merge suppresses noise, same as every arm) and
// keep the run's wire-level counters next to the timing.
func runDistributedArms(p *pass, g *datagen.Generated, rules []*dcer.Rule, reg *mlpred.Registry) {
	exe, exeErr := os.Executable()
	for _, n := range []int{2, 4} {
		name := fmt.Sprintf("DMatchDist/workers=%d", n)
		if !armOn(name) {
			continue
		}
		if exeErr != nil {
			logg.Warnf("skipping %s: cannot locate own binary: %v", name, exeErr)
			return
		}
		logg.Infof("benchmarking %s (separate worker processes over TCP)...", name)
		var procs []*exec.Cmd
		spawn := func(w int, addr string) error {
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(),
				benchWorkerEnv+"=1",
				"DCER_BENCH_ADDR="+addr,
				"DCER_BENCH_WORKER_ID="+strconv.Itoa(w),
				"DCER_BENCH_SCALE="+strconv.FormatFloat(benchScale, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return err
			}
			procs = append(procs, cmd)
			return nil
		}
		t0 := time.Now()
		res, err := dmatch.RunDistributed(g.D, rules, reg, dmatch.Options{Workers: n}, dmatch.DistOptions{Spawn: spawn})
		el := time.Since(t0)
		for _, pr := range procs {
			pr.Wait()
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		p.entries = append(p.entries, entry{
			Name: name, Ops: 1, NsPerOp: el.Nanoseconds(),
			SimulatedTimeNs: int64(res.SimulatedTime),
		})
		if p.wireStats == nil {
			p.wireStats = map[string]wire.Snapshot{}
		}
		p.wireStats[name] = res.Wire
	}
}

// runWireCodecArm measures the wire codec in isolation: encoding
// superstep batches of ML facts (the realistic shape — few classifier
// names, many facts) and the symbol-dictionary ratio against naive
// inline strings.
func runWireCodecArm(p *pass) {
	const name = "WireCodec/dict"
	if !armOn(name) {
		return
	}
	logg.Infof("benchmarking %s...", name)
	models := []string{"lev075", "jaro085", "bert-mini", "ditto"}
	facts := make([]chase.Fact, 2000)
	for i := range facts {
		facts[i] = chase.Fact{
			Kind:  chase.FactML,
			Model: models[i%len(models)],
			A:     relation.TID(i),
			B:     relation.TID(i*7 + 1),
		}
	}
	var stats wire.Stats
	var totalFacts int64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := wire.NewEncoder(io.Discard, &stats)
			for step := 0; step < 20; step++ {
				if err := enc.Step(wire.Step{Step: step, Facts: facts}); err != nil {
					b.Fatal(err)
				}
				totalFacts += int64(len(facts))
			}
		}
	})
	p.entries = append(p.entries, toEntry(name, r))
	s := stats.Snapshot()
	// Actual symbol cost on the wire: the dictionary deltas plus roughly
	// one varint id byte per ML fact (ids stay tiny with few models).
	if actual := s.DictBytes + totalFacts; actual > 0 {
		p.dictRatio = float64(s.NaiveSymBytes) / float64(actual)
	}
}

// armOn reports whether the named arm is selected by -arms.
func armOn(name string) bool { return armRE == nil || armRE.MatchString(name) }

// peakRSSBytes reads the process high-water resident set (VmHWM) from
// /proc/self/status. Returns 0 if unreadable (non-Linux).
func peakRSSBytes() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb * 1024
			}
		}
	}
	return 0
}

// resetPeakRSS resets VmHWM to the current RSS so each storage arm
// reports its own peak. Writing "5" to /proc/self/clear_refs needs
// CAP_SYS_RESOURCE; failure is reported, not fatal.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// runStorageArms measures the memory axes the columnar storage work
// targets: a bulk-ingest arm and a full Deduce arm at memscale
// (~573K tuples at 20), plus an optional ~1M-tuple ingest+chase arm
// under a memory budget (-mem1m/-membudget). Each arm starts from a
// GC'd, OS-returned heap with the RSS high-water mark reset, so
// DeltaLiveBytes and PeakRSSBytes attribute to the arm alone.
func runStorageArms(memscale float64, mem1m bool, budget, budget1m int64) []memEntry {
	var out []memEntry
	reg := mlpred.DefaultRegistry()

	measure := func(name string, scale float64, budget int64, run func() (tuples, facts int)) {
		if !armOn(name) {
			return
		}
		logg.Infof("measuring %s...", name)
		runtime.GC()
		debug.FreeOSMemory()
		rssReset := resetPeakRSS()
		if budget > 0 {
			// A budgeted arm is a budgeted process: the engine bounds its
			// own structures against MemBudgetBytes, and the runtime soft
			// limit keeps GC headroom inside the same envelope so peak RSS
			// tracks the budget rather than 2x the live heap.
			prev := debug.SetMemoryLimit(budget)
			defer debug.SetMemoryLimit(prev)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		tuples, facts := run()
		el := time.Since(t0)
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		e := memEntry{
			Name:            name,
			Scale:           scale,
			Tuples:          tuples,
			Facts:           facts,
			NsTotal:         el.Nanoseconds(),
			AllocsTotal:     int64(ms1.Mallocs - ms0.Mallocs),
			AllocBytesTotal: int64(ms1.TotalAlloc - ms0.TotalAlloc),
			LiveHeapBytes:   int64(ms1.HeapAlloc),
			DeltaLiveBytes:  int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc),
			PeakRSSBytes:    peakRSSBytes(),
			PeakRSSReset:    rssReset,
			MemBudgetBytes:  budget,
		}
		if tuples > 0 {
			e.BytesPerTuple = float64(e.DeltaLiveBytes) / float64(tuples)
		}
		out = append(out, e)
	}

	if memscale > 0 {
		var g *datagen.Generated
		var rules []*dcer.Rule
		scaleName := strconv.FormatFloat(memscale, 'g', -1, 64)
		measure("Ingest/scale"+scaleName, memscale, 0, func() (int, int) {
			g = datagen.TPCH(datagen.TPCHOptions{Scale: memscale, Dup: 0.3, Seed: 1})
			var err error
			if rules, err = g.Rules(); err != nil {
				fatal(err)
			}
			return g.D.Size(), 0
		})
		if g == nil {
			// The ingest arm was filtered out but Deduce still needs data.
			g = datagen.TPCH(datagen.TPCHOptions{Scale: memscale, Dup: 0.3, Seed: 1})
			var err error
			if rules, err = g.Rules(); err != nil {
				fatal(err)
			}
		}
		var eng *chase.Engine
		measure("Deduce/scale"+scaleName, memscale, budget, func() (int, int) {
			var err error
			eng, err = chase.New(g.D, rules, reg, chase.Options{ShareIndexes: true, MemBudgetBytes: budget})
			if err != nil {
				fatal(err)
			}
			facts := eng.Deduce()
			return g.D.Size(), len(facts)
		})
		runtime.KeepAlive(eng)
		eng = nil
		// The same chase with the rule interpreter instead of the compiled
		// plans: the large-scale end of the plan=off|on A/B (NsTotal is the
		// timing axis here; the arm runs once, not noise-suppressed).
		measure("Deduce/scale"+scaleName+"/plan=off", memscale, budget, func() (int, int) {
			var err error
			eng, err = chase.New(g.D, rules, reg, chase.Options{
				ShareIndexes: true, MemBudgetBytes: budget, InterpretRules: true,
			})
			if err != nil {
				fatal(err)
			}
			facts := eng.Deduce()
			return g.D.Size(), len(facts)
		})
		runtime.KeepAlive(eng)
		// Drop the references so the 1M arm (or the caller) starts from a
		// reclaimable heap.
		eng, g, rules = nil, nil, nil
		runtime.KeepAlive(eng)
	}

	if mem1m {
		// TPCH scale 35 ≈ 1.0M tuples: ingest and chase measured as one
		// arm, the whole pipeline held under the configured budget.
		const mScale = 35.0
		var eng *chase.Engine
		measure("Chase1M/membudget", mScale, budget1m, func() (int, int) {
			g := datagen.TPCH(datagen.TPCHOptions{Scale: mScale, Dup: 0.3, Seed: 1})
			rules, err := g.Rules()
			if err != nil {
				fatal(err)
			}
			eng, err = chase.New(g.D, rules, reg, chase.Options{ShareIndexes: true, MemBudgetBytes: budget1m})
			if err != nil {
				fatal(err)
			}
			facts := eng.Deduce()
			return g.D.Size(), len(facts)
		})
		runtime.KeepAlive(eng)
	}
	return out
}

func runPass(g *datagen.Generated, rules []*dcer.Rule, workers int, fig6 bool, expScale float64) *pass {
	reg := mlpred.DefaultRegistry()
	p := &pass{}

	// Deduce arms: the sequential/concurrent pair tracked since PR 1, plus
	// the compiled-plan A/B — plan=off forces Options.InterpretRules (the
	// conjunct-at-a-time interpreter), plan=on is the default vectorized
	// predicate-plan path, both over the concurrent first pass. Every arm
	// must land on identical equivalence classes.
	classes := map[string]string{}
	for _, arm := range []struct {
		name string
		opts chase.Options
	}{
		{"Deduce/sequential", chase.Options{ShareIndexes: true, SequentialDeduce: true}},
		{"Deduce/concurrent", chase.Options{ShareIndexes: true}},
		{"Deduce/plan=off", chase.Options{ShareIndexes: true, InterpretRules: true}},
		{"Deduce/plan=on", chase.Options{ShareIndexes: true}},
	} {
		if !armOn(arm.name) {
			continue
		}
		logg.Infof("benchmarking %s...", arm.name)
		var last *chase.Engine
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := chase.New(g.D, rules, reg, arm.opts)
				if err != nil {
					b.Fatal(err)
				}
				eng.Deduce()
				last = eng
			}
		})
		classes[arm.name] = dcer.CanonicalClasses(last.Classes())
		p.entries = append(p.entries, toEntry(arm.name, r))
	}
	var firstArm, firstClasses string
	for name, c := range classes {
		if firstArm == "" || name < firstArm {
			firstArm, firstClasses = name, c
		}
	}
	for name, c := range classes {
		if c != firstClasses {
			fatal(fmt.Errorf("%s and %s disagree on equivalence classes", firstArm, name))
		}
	}

	// The same concurrent Deduce with the registry live: per-rule
	// histograms, drain instruments, gauge views, tracer. A single ~1s
	// sample on this host class is dominated by GC-cycle boundary luck
	// and neighbor steal (±10-30%), far above the instrumentation cost,
	// so the overhead is measured with tightly interleaved triples —
	// one uninstrumented chase, one with telemetry, one with the
	// justification log, one under the health monitor, each after a
	// forced GC, deducePairs times per pass: the four runs of a quad see
	// the same external load, so per-quad ratios cancel host drift. The
	// report keeps the median ratio over every quad of every pass
	// (medianOverheadPct), which discards the quads a load spike
	// corrupted outright — on this host a single spike otherwise moves
	// even a best-pass sum by several percent, above the effect being
	// measured.
	treg := telemetry.NewRegistry()
	if armOn("Deduce/telemetry") {
		logg.Infof("benchmarking Deduce/telemetry, Deduce/provenance and Deduce/health (paired overhead samples)...")
		runOverheadQuads(p, g, rules, reg)
	}
	runIncDeduceArms(p, g, rules, reg, workers, fig6, expScale, treg)
	return p
}

// runOverheadQuads measures the telemetry, provenance and health overhead
// arms as tightly interleaved quads (see the comment at the call site).
// Each instrumented run gets a throwaway registry: the engine's
// gauge views close over engine state, so a registry shared across
// runs would keep the previous engine reachable — ~100MB of GC
// ballast that skews the pacing of whichever arm runs next. With a
// fresh registry both arms allocate and drop the same object graph.
// GC is disabled inside the timed region (a single chase allocates
// ~50MB, well within budget): whether a run catches 1 or 2 GC
// cycles moves it ±10%, two orders above the instrumentation cost,
// while instrumentation's own GC pressure is visible in the
// bytes/allocs columns (~200 allocs per chase).
func runOverheadQuads(p *pass, g *datagen.Generated, rules []*dcer.Rule, reg *mlpred.Registry) {
	const deducePairs = 6
	truth := eval.NewTruth(g.Truth)
	// newHealthMonitor builds the health arm's monitor: its own registry
	// (the engine's Metrics stays nil so the measurement isolates the
	// health cost from the telemetry cost), the planted truth driving the
	// accuracy observatory, and a started watchdog — the full health-on
	// configuration minus classifier calibration, which would have to
	// mutate the shared mlpred registry and so contaminate the base arm
	// (its cost is one atomic add per classifier call).
	newHealthMonitor := func() *health.Monitor {
		return health.NewMonitor(health.Options{
			Registry:     telemetry.NewRegistry(),
			DiagnosisDir: os.TempDir(),
			Truth:        truth,
			Seed:         1,
		})
	}
	oneDeduce := func(instrumented, prov, healthOn bool) (time.Duration, int64, int64) {
		var mon *health.Monitor
		if healthOn {
			mon = newHealthMonitor()
			mon.Start()
		}
		runtime.GC()
		var m *telemetry.Registry
		if instrumented {
			m = telemetry.NewRegistry()
		}
		// The provenance arm captures into a fresh unbounded log, the
		// worst case for the record path (no drops, every derivation
		// justified).
		var plog *provenance.Log
		if prov {
			plog = provenance.NewLog(-1)
		}
		gcOld := debug.SetGCPercent(-1)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		eng, err := chase.New(g.D, rules, reg, chase.Options{ShareIndexes: true, Metrics: m, Provenance: plog, Health: mon})
		if err != nil {
			fatal(err)
		}
		eng.Deduce()
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		debug.SetGCPercent(gcOld)
		if mon != nil {
			mon.Stop()
		}
		return el, int64(ms1.TotalAlloc - ms0.TotalAlloc), int64(ms1.Mallocs - ms0.Mallocs)
	}
	pairBase := entry{Name: "Deduce/telemetry_base", Ops: deducePairs}
	pairTel := entry{Name: "Deduce/telemetry", Ops: deducePairs}
	pairProv := entry{Name: "Deduce/provenance", Ops: deducePairs}
	pairHealth := entry{Name: "Deduce/health", Ops: deducePairs}
	add := func(e *entry, ns time.Duration, by, al int64) {
		e.NsPerOp += ns.Nanoseconds()
		e.BytesPerOp += by
		e.AllocsPerOp += al
	}
	for r := 0; r < deducePairs; r++ {
		bns, bby, bal := oneDeduce(false, false, false)
		add(&pairBase, bns, bby, bal)
		tns, tby, tal := oneDeduce(true, false, false)
		add(&pairTel, tns, tby, tal)
		pns, pby, pal := oneDeduce(false, true, false)
		add(&pairProv, pns, pby, pal)
		hns, hby, hal := oneDeduce(false, false, true)
		add(&pairHealth, hns, hby, hal)
		p.pairSamples = append(p.pairSamples,
			[4]int64{bns.Nanoseconds(), tns.Nanoseconds(), pns.Nanoseconds(), hns.Nanoseconds()})
	}
	for _, e := range []*entry{&pairBase, &pairTel, &pairProv, &pairHealth} {
		e.NsPerOp /= deducePairs
		e.BytesPerOp /= deducePairs
		e.AllocsPerOp /= deducePairs
	}
	p.entries = append(p.entries, pairTel, pairProv, pairHealth, pairBase)
}

// runIncDeduceArms runs the remaining arms of a pass: IncDeduce, the ML
// cache microbenchmarks, the Partition arms, DMatch, and the Fig. 6
// drivers, each gated by -arms.
func runIncDeduceArms(p *pass, g *datagen.Generated, rules []*dcer.Rule, reg *mlpred.Registry, workers int, fig6 bool, expScale float64, treg *telemetry.Registry) {
	// IncDeduce: replay a full chase's facts into a fresh engine through
	// the incremental path A_Δ. The run is pure update-driven drain — the
	// component that dominates the Fig. 6 drivers — A/B'd between the
	// sequential and the batched parallel drain.
	runIncDeduce(p, g, rules, reg)

	// Cache microbenchmarks: the packed-key hit path of the sharded pair
	// cache, and the feature store's bundle reuse over generated records.
	if armOn("MLCache/paircache") {
		logg.Infof("benchmarking MLCache/paircache...")
		pc := mlpred.NewPairCache()
		pcID := pc.ClassifierID("bench")
		rPC := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := relation.TID(i % (1 << 16))
				y := relation.TID((i * 7) % (1 << 16))
				if _, ok := pc.Lookup(pcID, x, y); !ok {
					pc.Store(pcID, x, y, true)
				}
			}
		})
		p.entries = append(p.entries, toEntry("MLCache/paircache", rPC))
	}

	if armOn("MLCache/featurestore") {
		logg.Infof("benchmarking MLCache/featurestore...")
		fs := mlpred.NewFeatureStore(0)
		fsAttrs := fs.AttrsID([]int{1})
		tuples := g.D.Tuples()
		rFS := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			var vals []relation.Value
			for i := 0; i < b.N; i++ {
				t := tuples[i%len(tuples)]
				vals = append(vals[:0], t.Val(1))
				fs.Get(t.GID, fsAttrs, vals)
			}
		})
		p.entries = append(p.entries, toEntry("MLCache/featurestore", rFS))
	}

	// Partition arms: the partition pass on its sequential path and at 8
	// shards. The equivalence check runs before any timing: the sharded
	// pass must be byte-identical to the sequential one.
	if armOn("Partition") {
		seqPart, err := hypart.Partition(g.D, rules, workers, hypart.Options{Share: true, Shards: 1})
		if err != nil {
			fatal(err)
		}
		parPart, err := hypart.Partition(g.D, rules, workers, hypart.Options{Share: true, Shards: 8})
		if err != nil {
			fatal(err)
		}
		if !reflect.DeepEqual(seqPart.Fragments, parPart.Fragments) ||
			!reflect.DeepEqual(seqPart.RuleFragments, parPart.RuleFragments) {
			fatal(fmt.Errorf("sharded Partition diverges from the sequential path"))
		}
		arms := []struct {
			name string
			run  func() (*hypart.Result, error)
		}{
			{"Partition/shards=1", func() (*hypart.Result, error) {
				return hypart.Partition(g.D, rules, workers, hypart.Options{Share: true, Shards: 1})
			}},
			{"Partition/shards=8", func() (*hypart.Result, error) {
				return hypart.Partition(g.D, rules, workers, hypart.Options{Share: true, Shards: 8})
			}},
		}
		for _, arm := range arms {
			logg.Infof("benchmarking %s...", arm.name)
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := arm.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
			p.entries = append(p.entries, toEntry(arm.name, r))
		}
	}

	runDistributedArms(p, g, rules, reg)
	runWireCodecArm(p)

	for _, n := range []int{1, workers} {
		name := fmt.Sprintf("DMatch/workers=%d", n)
		if !armOn(name) {
			continue
		}
		logg.Infof("benchmarking %s...", name)
		var sim time.Duration
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := dmatch.Run(g.D, rules, reg, dmatch.Options{Workers: n})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.SimulatedTime
			}
		})
		e := toEntry(name, r)
		e.SimulatedTimeNs = int64(sim)
		p.entries = append(p.entries, e)
	}

	// One instrumented DMatch run adds the BSP stage histograms (routing,
	// per-worker busy time) and the HyPart shape to the same registry,
	// then the combined snapshot is embedded in the report together with
	// the run's routing profile.
	if armOn("DMatch") {
		dres, err := dmatch.Run(g.D, rules, reg, dmatch.Options{Workers: workers, Metrics: treg})
		if err != nil {
			fatal(err)
		}
		p.stageHists = stageSnapshot(treg)
		var routeNs int64
		for _, ss := range dres.Timeline().Steps {
			routeNs += ss.RouteNs
		}
		p.routing = &routingStats{
			Workers:         workers,
			Supersteps:      dres.Supersteps,
			MessagesRouted:  dres.MessagesRouted,
			MessagesDeduped: dres.MessagesDeduped,
			RouteNsTotal:    routeNs,
		}
		if dres.Supersteps > 0 {
			p.routing.RouteNsPerStep = routeNs / int64(dres.Supersteps)
		}
	}

	if fig6 {
		cfg := experiments.Config{Scale: expScale, Workers: workers, Seed: 1}
		drivers := []struct {
			name string
			run  func(experiments.Config) *experiments.Table
		}{
			{"Fig6ab", experiments.Fig6AB},
			{"Fig6cd", experiments.Fig6CD},
			{"Fig6ef", experiments.Fig6EF},
			{"Fig6gh", experiments.Fig6GH},
			{"Fig6ij", experiments.Fig6IJ},
			{"Fig6kl", experiments.Fig6KL},
		}
		for _, d := range drivers {
			if !armOn(d.name) {
				continue
			}
			logg.Infof("benchmarking %s...", d.name)
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d.run(cfg)
				}
			})
			p.entries = append(p.entries, toEntry(d.name, r))
		}
	}
}

// runIncDeduce measures the sequential and batched-parallel drain over a
// replayed fact set — plus the compiled-plan A/B over the parallel drain
// — and snapshots the parallel run's engine counters. Each arm is gated
// by -arms under its own name (IncDeduce/...), so a pattern such as
// '^(Deduce|IncDeduce)/' selects exactly the arms it names.
func runIncDeduce(p *pass, g *datagen.Generated, rules []*dcer.Rule, reg *mlpred.Registry) {
	healthOn := armOn("IncDeduce/health") || armOn("IncDeduce/health_base")
	// An explicit DrainParallelMin forces the batched path even where the
	// default would fall back to sequential (GOMAXPROCS=1 hosts).
	parOpts := chase.Options{ShareIndexes: true, DrainParallelMin: chase.DefaultDrainParallelMin}
	interpOpts := parOpts
	interpOpts.InterpretRules = true
	type incArm struct {
		name string
		opts chase.Options
	}
	var arms []incArm
	for _, arm := range []incArm{
		{"IncDeduce/sequential", chase.Options{ShareIndexes: true, SequentialDrain: true}},
		{"IncDeduce/parallel", parOpts},
		{"IncDeduce/plan=off", interpOpts},
		{"IncDeduce/plan=on", parOpts},
	} {
		if armOn(arm.name) {
			arms = append(arms, arm)
		}
	}
	if len(arms) == 0 && !healthOn {
		return
	}
	base, err := chase.New(g.D, rules, reg, chase.Options{ShareIndexes: true})
	if err != nil {
		fatal(err)
	}
	facts := base.Deduce()
	wantClasses := dcer.CanonicalClasses(base.Classes())
	for _, arm := range arms {
		logg.Infof("benchmarking %s...", arm.name)
		var last *chase.Engine
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := chase.New(g.D, rules, reg, arm.opts)
				if err != nil {
					b.Fatal(err)
				}
				eng.IncDeduce(facts)
				last = eng
			}
		})
		if got := dcer.CanonicalClasses(last.Classes()); got != wantClasses {
			fatal(fmt.Errorf("%s classes diverge from the full chase", arm.name))
		}
		p.entries = append(p.entries, toEntry(arm.name, r))
		if arm.name == "IncDeduce/parallel" {
			st := last.Stats()
			p.incDeduceStats = &st
		}
	}

	// The health-on/health-off pair over the same incremental drain:
	// back-to-back runs (forced GC before each, GC quiesced inside the
	// timed region, same rationale as the Deduce overhead quads) so the
	// per-pair ratio cancels host drift. The incremental path is where
	// the auditors actually fire repeatedly — the drain loop audits every
	// healthAuditEvery rounds plus once at the fixpoint.
	if !healthOn {
		return
	}
	const incPairs = 6
	truth := eval.NewTruth(g.Truth)
	oneInc := func(mon *health.Monitor) time.Duration {
		runtime.GC()
		gcOld := debug.SetGCPercent(-1)
		t0 := time.Now()
		eng, err := chase.New(g.D, rules, reg, chase.Options{
			ShareIndexes: true, DrainParallelMin: chase.DefaultDrainParallelMin, Health: mon,
		})
		if err != nil {
			fatal(err)
		}
		eng.IncDeduce(facts)
		el := time.Since(t0)
		debug.SetGCPercent(gcOld)
		return el
	}
	hBase := entry{Name: "IncDeduce/health_base", Ops: incPairs}
	hOn := entry{Name: "IncDeduce/health", Ops: incPairs}
	for r := 0; r < incPairs; r++ {
		mon := health.NewMonitor(health.Options{
			Registry:     telemetry.NewRegistry(),
			DiagnosisDir: os.TempDir(),
			Truth:        truth,
			Seed:         1,
		})
		mon.Start()
		b := oneInc(nil)
		h := oneInc(mon)
		mon.Stop()
		hBase.NsPerOp += b.Nanoseconds()
		hOn.NsPerOp += h.Nanoseconds()
		p.incHealthSamples = append(p.incHealthSamples, [2]int64{b.Nanoseconds(), h.Nanoseconds()})
	}
	hBase.NsPerOp /= incPairs
	hOn.NsPerOp /= incPairs
	p.entries = append(p.entries, hOn, hBase)
}

func main() {
	if os.Getenv(benchWorkerEnv) == "1" {
		// Re-exec'd as a DMatchDist worker process: no flags, no report.
		benchWorkerMain()
		return
	}
	scale := flag.Float64("scale", 2.0, "TPCH scale for the Deduce/DMatch benchmarks (2.0 ≈ 57k tuples)")
	expScale := flag.Float64("expscale", 0.1, "experiments.Config scale for the Fig. 6 drivers")
	workers := flag.Int("workers", 8, "DMatch worker count")
	fig6 := flag.Bool("fig6", true, "also run the Fig. 6 experiment drivers")
	repeat := flag.Int("repeat", 3, "measure every benchmark this many times and keep the per-benchmark minimum")
	out := flag.String("out", "BENCH_10.json", "output JSON path")
	prev := flag.String("prev", "BENCH_9.json", "previous report to print the delta table against (empty or missing = skip)")
	plandump := flag.Bool("plandump", false, "print the compiled predicate programs with their observed selectivities (the plan=on attribution run's PlanReport)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	arms := flag.String("arms", "", "regex selecting which benchmark arms run (empty = all)")
	memscale := flag.Float64("memscale", 20, "TPCH scale for the storage arms (20 ≈ 573k tuples; 0 = skip)")
	mem1m := flag.Bool("mem1m", false, "also run the ~1M-tuple ingest+chase arm (TPCH scale 35)")
	membudget := flag.Int64("membudget", 0, "chase.Options.MemBudgetBytes for the memscale storage arms (0 = unbounded)")
	mem1mbudget := flag.Int64("mem1mbudget", 1610612736, "MemBudgetBytes for the -mem1m arm (0 = unbounded; default 1.5 GiB)")
	obs := cliutil.Register()
	flag.Parse()
	if *repeat < 1 {
		*repeat = 1
	}
	if *arms != "" {
		re, err := regexp.Compile(*arms)
		if err != nil {
			fatal(fmt.Errorf("bad -arms regex: %w", err))
		}
		armRE = re
	}
	var stopTel func()
	var err error
	logg, stopTel, err = obs.Init("bench")
	if err != nil {
		fatal(err)
	}
	defer stopTel()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	rep := &report{
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Scale:        *scale,
		Repeat:       *repeat,
		SeedBaseline: seedBaseline,
		PR1Baseline:  pr1Baseline,
		Notes: "ns_per_op are wall-clock on this host; simulated_time_ns is the BSP makespan " +
			"(max worker time per superstep, summed), the faithful stand-in for an n-machine cluster. " +
			"The host is a shared single-core VM with ±20% run-to-run variance under external load; " +
			"every benchmark is measured `repeat` times and the per-benchmark minimum recorded " +
			"(the pr1/seed baselines were single-shot and carry the full variance). " +
			"telemetry_overhead_pct compares Deduce with the metrics registry attached against an " +
			"interleaved uninstrumented arm (same-pass sums, GC quiesced inside the timed region, " +
			"least-loaded pass); provenance_overhead_pct measures the justification-log capture the " +
			"same way (unbounded log, worst case; budget ≤ 5%); health_overhead_pct and " +
			"health_inc_overhead_pct measure the health observatory (invariant auditors, stall " +
			"heartbeats, accuracy sampling) the same way over Deduce and the incremental drain " +
			"(budget ≤ 5%); stage_histograms are the per-stage " +
			"latency distributions of the telemetry-enabled pass. The plan=off|on arms A/B the " +
			"compiled predicate plans against the rule interpreter (Options.InterpretRules); " +
			"plan_attribution pairs the two modes' per-rule enumeration time from back-to-back " +
			"telemetry-attached chases. The DMatchDist arms run the same DMatch with the workers " +
			"as separate OS processes over TCP (each re-exec'd from this binary, regenerating the " +
			"dataset from the shared seed); wire_stats keeps their wire-level counters and " +
			"wire_dict_ratio the codec arm's symbol-dictionary compression vs naive inline strings.",
	}

	benchScale = *scale
	logg.Infof("generating TPCH scale %.2f...", *scale)
	g := datagen.TPCH(datagen.TPCHOptions{Scale: *scale, Dup: 0.3, Seed: 1})
	rules, err := g.Rules()
	if err != nil {
		fatal(err)
	}
	for _, rel := range g.D.Relations {
		rep.Tuples += len(rel.Tuples)
	}
	rep.Rules = len(rules)

	// Measure `repeat` full passes and keep, per benchmark, the entry with
	// the minimum ns/op (and the engine stats of the best parallel
	// IncDeduce pass). The merge preserves first-pass ordering. Every pass
	// re-asserts the sequential/parallel class identity, so the flag below
	// reports the conjunction over all passes.
	best := map[string]entry{}
	var order []string
	var pairSamples [][4]int64
	var incHealthSamples [][2]int64
	for r := 0; r < *repeat; r++ {
		if *repeat > 1 {
			logg.Infof("--- pass %d/%d ---", r+1, *repeat)
		}
		p := runPass(g, rules, *workers, *fig6, *expScale)
		for _, e := range p.entries {
			prevBest, seen := best[e.Name]
			if !seen {
				order = append(order, e.Name)
			}
			if !seen || e.NsPerOp < prevBest.NsPerOp {
				best[e.Name] = e
				if e.Name == "IncDeduce/parallel" {
					rep.IncDeduceStats = p.incDeduceStats
				}
				if e.Name == "Deduce/telemetry" {
					rep.StageHistograms = p.stageHists
					rep.RoutingStats = p.routing
				}
				if snap, ok := p.wireStats[e.Name]; ok {
					if rep.WireStats == nil {
						rep.WireStats = map[string]wire.Snapshot{}
					}
					rep.WireStats[e.Name] = snap
				}
			}
		}
		if p.dictRatio > 0 {
			rep.WireDictRatio = p.dictRatio
		}
		pairSamples = append(pairSamples, p.pairSamples...)
		incHealthSamples = append(incHealthSamples, p.incHealthSamples...)
	}
	rep.TelemetryOverheadPct = medianOverheadPct(pairSamples, 1)
	rep.ProvenanceOverheadPct = medianOverheadPct(pairSamples, 2)
	rep.HealthOverheadPct = medianOverheadPct(pairSamples, 3)
	rep.HealthIncOverheadPct = medianPairPct(incHealthSamples)
	rep.ClassesIdentical = true // runPass fatals on any divergence
	for _, name := range order {
		rep.Benchmarks = append(rep.Benchmarks, best[name])
	}

	// The attribution pass runs once: it pairs two telemetry-attached
	// chases (interpreter, then plans) so per-rule speedups come from runs
	// under the same load, and keeps the plan run's compiled programs.
	if armOn("Deduce/plan=on") {
		logg.Infof("attributing per-rule plan speedup...")
		rep.PlanAttribution, rep.PlanReport = runPlanAttribution(g, rules, mlpred.DefaultRegistry())
	}

	// Storage arms run once, after the timing passes: the axes are live
	// bytes and peak RSS, which repeated minima would not sharpen.
	rep.Memory = runStorageArms(*memscale, *mem1m, *membudget, *mem1mbudget)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks, best of %d)\n", *out, len(rep.Benchmarks), *repeat)
	for _, e := range rep.Benchmarks {
		fmt.Printf("  %-24s %3d ops  %12d ns/op  %10d allocs/op\n", e.Name, e.Ops, e.NsPerOp, e.AllocsPerOp)
	}
	if rs := rep.RoutingStats; rs != nil {
		fmt.Printf("routing (w=%d): %d supersteps, %d routed, %d deduped, %s route time per superstep\n",
			rs.Workers, rs.Supersteps, rs.MessagesRouted, rs.MessagesDeduped,
			time.Duration(rs.RouteNsPerStep).Round(time.Microsecond))
	}
	if len(rep.WireStats) > 0 {
		var names []string
		for n := range rep.WireStats {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			w := rep.WireStats[n]
			fmt.Printf("wire (%s): out=%s in=%s frames=%d/%d encode=%s decode=%s dict=%d strings %s\n",
				n, fmtBytes(w.BytesOut), fmtBytes(w.BytesIn), w.FramesOut, w.FramesIn,
				time.Duration(w.EncodeNs).Round(time.Microsecond),
				time.Duration(w.DecodeNs).Round(time.Microsecond),
				w.DictStrings, fmtBytes(w.DictBytes))
		}
	}
	if rep.WireDictRatio > 0 {
		fmt.Printf("wire dictionary ratio: %.1fx vs naive inline model strings (acceptance ≥ 3x)\n", rep.WireDictRatio)
	}
	fmt.Printf("telemetry overhead: %+.2f%% (Deduce/telemetry vs its interleaved uninstrumented arm, median triple)\n",
		rep.TelemetryOverheadPct)
	fmt.Printf("provenance overhead: %+.2f%% (Deduce with an unbounded justification log vs the same arm; budget ≤ 5%%)\n",
		rep.ProvenanceOverheadPct)
	fmt.Printf("health overhead: %+.2f%% Deduce, %+.2f%% IncDeduce (auditors + heartbeats + accuracy sampling vs paired health-off arms; budget ≤ 5%%)\n",
		rep.HealthOverheadPct, rep.HealthIncOverheadPct)
	printMemTable(rep)
	printAttribution(rep)
	printPlanAttribution(rep)
	if *plandump && rep.PlanReport != nil {
		dump, err := json.MarshalIndent(rep.PlanReport, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("compiled plans (current order, observed selectivities):\n%s\n", dump)
	}
	printDelta(rep, *prev)
}

// printPlanAttribution renders the per-rule interpreter-vs-plan table.
func printPlanAttribution(rep *report) {
	if len(rep.PlanAttribution) == 0 {
		return
	}
	fmt.Println("per-rule plan attribution (telemetry-attached Deduce, interpreter vs compiled plans):")
	fmt.Printf("  %-8s %12s %12s %9s %14s %9s\n", "rule", "interp", "plan", "speedup", "preds-eval", "reorders")
	for _, r := range rep.PlanAttribution {
		fmt.Printf("  %-8s %12s %12s %8.2fx %14d %9d\n",
			r.Rule, time.Duration(int64(r.InterpNs)).Round(time.Microsecond),
			time.Duration(int64(r.PlanNs)).Round(time.Microsecond), r.Speedup, r.PredEvals, r.Reorders)
	}
}

// printMemTable renders the storage arms as a bytes/tuple table.
func printMemTable(rep *report) {
	if len(rep.Memory) == 0 {
		return
	}
	fmt.Println("storage arms (live heap after GC; peak RSS per arm where resettable):")
	fmt.Printf("  %-20s %9s %10s %8s %11s %11s %10s\n",
		"arm", "tuples", "time", "B/tuple", "live-heap", "peak-RSS", "allocs")
	for _, m := range rep.Memory {
		rss := fmtBytes(m.PeakRSSBytes)
		if !m.PeakRSSReset {
			rss += "*"
		}
		fmt.Printf("  %-20s %9d %10s %8.1f %11s %11s %10d\n",
			m.Name, m.Tuples, time.Duration(m.NsTotal).Round(time.Millisecond),
			m.BytesPerTuple, fmtBytes(m.DeltaLiveBytes), rss, m.AllocsTotal)
	}
}

// fmtBytes renders a byte count with a binary suffix.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30 || b <= -(1<<30):
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20 || b <= -(1<<20):
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10 || b <= -(1<<10):
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// medianOverheadPct reduces the interleaved overhead quads to one
// number: per quad, the ratio of the given arm (1 = telemetry,
// 2 = provenance, 3 = health) to the uninstrumented base it ran back to
// back with, then the median ratio across every quad of every pass, as a
// percentage over 100%. The chases of a quad see the same external load,
// so the ratio cancels host drift; the median discards the quads a load
// spike corrupted, which on this host class would move even a
// least-loaded-pass sum by several percent — above the instrumentation
// cost being measured.
func medianOverheadPct(samples [][4]int64, arm int) float64 {
	ratios := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s[0] > 0 {
			ratios = append(ratios, float64(s[arm])/float64(s[0]))
		}
	}
	return medianRatioPct(ratios)
}

// medianPairPct is the same reduction for the two-arm IncDeduce health
// pairs: median over the per-pair on/off ratios, as a percentage.
func medianPairPct(samples [][2]int64) float64 {
	ratios := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s[0] > 0 {
			ratios = append(ratios, float64(s[1])/float64(s[0]))
		}
	}
	return medianRatioPct(ratios)
}

// medianRatioPct renders the median of instrumented/base ratios as a
// percentage over 100% (empty input = 0).
func medianRatioPct(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	sort.Float64s(ratios)
	n := len(ratios)
	if n%2 == 1 {
		return 100 * (ratios[n/2] - 1)
	}
	return 100 * ((ratios[n/2-1]+ratios[n/2])/2 - 1)
}

// printAttribution breaks the instrumented time down by stage: each
// duration histogram's share of the total time the telemetry pass saw.
func printAttribution(rep *report) {
	sums := map[string]float64{}
	var total float64
	for _, h := range rep.StageHistograms {
		if !strings.HasSuffix(h.Name, "_ns") {
			continue
		}
		sums[h.Name] += h.Sum
		total += h.Sum
	}
	if total == 0 {
		return
	}
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return sums[names[i]] > sums[names[j]] })
	fmt.Println("stage attribution (telemetry pass, summed over instrumented regions):")
	for _, n := range names {
		fmt.Printf("  %-32s %12s  %5.1f%%\n", n, time.Duration(sums[n]).Round(time.Millisecond), 100*sums[n]/total)
	}
}

// printDelta compares the run against a previous BENCH_<n>.json report.
func printDelta(rep *report, path string) {
	if path == "" {
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		logg.Warnf("no previous report %s: %v", path, err)
		return
	}
	var old report
	if err := json.Unmarshal(buf, &old); err != nil {
		logg.Warnf("unreadable previous report %s: %v", path, err)
		return
	}
	prevNs := make(map[string]int64, len(old.Benchmarks))
	for _, e := range old.Benchmarks {
		prevNs[e.Name] = e.NsPerOp
	}
	fmt.Printf("vs %s:\n", path)
	for _, e := range rep.Benchmarks {
		if p, ok := prevNs[e.Name]; ok && p > 0 {
			fmt.Printf("  %-24s %12d -> %12d ns/op  %+6.1f%%\n",
				e.Name, p, e.NsPerOp, 100*float64(e.NsPerOp-p)/float64(p))
		}
	}
	// Per-superstep route time: the previous report predates the
	// routing_stats field, so fall back to its dcer_dmatch_route_ns stage
	// histogram (sum/count over the instrumented run's supersteps).
	if rep.RoutingStats != nil {
		oldPerStep := float64(0)
		if old.RoutingStats != nil {
			oldPerStep = float64(old.RoutingStats.RouteNsPerStep)
		} else {
			for _, h := range old.StageHistograms {
				if h.Name == "dcer_dmatch_route_ns" && h.Count > 0 {
					oldPerStep = h.Sum / float64(h.Count)
					break
				}
			}
		}
		if oldPerStep > 0 {
			newPerStep := float64(rep.RoutingStats.RouteNsPerStep)
			fmt.Printf("  %-24s %12.0f -> %12.0f ns/superstep  %+6.1f%%\n",
				"DMatch/route", oldPerStep, newPerStep, 100*(newPerStep-oldPerStep)/oldPerStep)
		}
	}
	// Memory deltas: allocations and live/resident bytes per storage arm,
	// with the × factor the acceptance criteria are stated in.
	if len(rep.Memory) > 0 && len(old.Memory) > 0 {
		prevMem := make(map[string]memEntry, len(old.Memory))
		for _, m := range old.Memory {
			prevMem[m.Name] = m
		}
		ratio := func(oldV, newV int64) string {
			if newV <= 0 || oldV <= 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.2fx", float64(oldV)/float64(newV))
		}
		fmt.Printf("memory vs %s:\n", path)
		for _, m := range rep.Memory {
			o, ok := prevMem[m.Name]
			if !ok {
				continue
			}
			fmt.Printf("  %-20s allocs %d -> %d (%s fewer)  live %s -> %s (%s lower)  peakRSS %s -> %s (%s lower)\n",
				m.Name, o.AllocsTotal, m.AllocsTotal, ratio(o.AllocsTotal, m.AllocsTotal),
				fmtBytes(o.DeltaLiveBytes), fmtBytes(m.DeltaLiveBytes), ratio(o.DeltaLiveBytes, m.DeltaLiveBytes),
				fmtBytes(o.PeakRSSBytes), fmtBytes(m.PeakRSSBytes), ratio(o.PeakRSSBytes, m.PeakRSSBytes))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
