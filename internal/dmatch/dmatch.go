// Package dmatch implements the parallel algorithm DMatch of Section V-B:
// the BSP fixpoint model of Section III-B over fragments produced by
// HyPart. Each worker runs the sequential chase engine on its fragment —
// partial evaluation A (Deduce) in the first superstep, incremental A_Δ
// (IncDeduce) afterwards — and a master routes newly deduced matches and
// validated ML predictions to the workers hosting either tuple. No raw
// tuples are ever exchanged after partitioning, only facts.
//
// DMatch is parallelly scalable relative to Match (Theorem 7): work is
// evenly spread by HyPart's virtual blocks + LPT balancing, and the total
// incremental work is bounded by the number of facts, so in the model
// runtime shrinks proportionally as workers are added. Measured, it does
// not yet: on the benchmark's tpch-par2 workload (TPC-H scale 0.5, two
// workers, 2-CPU host) the speedup over sequential Match is 0.49 (0.27
// before HyPart's flat partition pass), against a
// hypart.speedup_ceiling of 1.02 — HyPart copies each tuple about four
// times and leaves each worker nearly the whole dataset. Bounding that
// replication is ROADMAP item 2.
//
// One superstep loop (bsp.go) drives both execution modes through a small
// worker interface: Run plugs in-process chase engines into it, and
// RunDistributed plugs worker processes reached over internal/wire. The
// master's routing is batched: a sequential pass folds each new fact's
// recipient set into a worker bitset (classes carry their host bitsets in
// the union-find, so recipients are two bitword ORs, not a member-list
// walk), then per-destination builders — one goroutine per worker — scan
// the route list and assemble each inbox, suppressing any fact the
// destination already received or itself produced (Result.MessagesDeduped).
package dmatch

import (
	"runtime"
	"time"

	"dcer/internal/chase"
	"dcer/internal/health"
	"dcer/internal/hypart"
	"dcer/internal/mlpred"
	"dcer/internal/provenance"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
	"dcer/internal/unionfind"
	"dcer/internal/wire"
)

// Options configures a DMatch run.
type Options struct {
	// Workers is the number n of workers; 0 means GOMAXPROCS.
	Workers int
	// NoMQO disables hash-function sharing in HyPart and index/ML-cache
	// sharing in the per-worker engines (the DMatch_noMQO ablation).
	NoMQO bool
	// MaxDeps is the per-worker dependency-store capacity K (see chase).
	MaxDeps int
	// ReplicationCap bounds HyPart's per-tuple copy factor (see hypart).
	ReplicationCap int
	// Sequential forces the supersteps to run workers one at a time (and
	// each worker's Deduce to enumerate rules sequentially); useful for
	// deterministic debugging and undistorted per-worker timings.
	Sequential bool
	// SequentialDeduce keeps the supersteps parallel across workers but
	// disables the concurrent per-rule first pass inside each worker's
	// Deduce (the pre-intra-parallelism behavior, kept for comparison).
	SequentialDeduce bool
	// SequentialDrain disables the batched parallel drain inside each
	// worker's Deduce/IncDeduce (see chase.Options.SequentialDrain), so
	// every superstep's incremental pass runs single-threaded per worker.
	SequentialDrain bool
	// DrainParallelMin overrides the per-worker parallel-drain batch
	// threshold (see chase.Options.DrainParallelMin); 0 keeps the default.
	DrainParallelMin int
	// InterpretRules disables the compiled predicate plans inside every
	// worker engine (see chase.Options.InterpretRules); the A/B oracle
	// for plan-equivalence runs.
	InterpretRules bool
	// PlanResortMinEvals overrides the per-worker adaptive plan-reorder
	// threshold (see chase.Options.PlanResortMinEvals).
	PlanResortMinEvals int
	// Metrics, when non-nil, receives live instrumentation: per-superstep
	// makespan/skew gauges, routing counters, per-worker busy histograms,
	// the partition-size histograms of HyPart, and every in-process worker
	// engine's chase series (labeled worker=i). The in-progress superstep
	// timeline is exposed as the "dmatch_timeline" debug provider
	// (/debug/dcer).
	Metrics *telemetry.Registry
	// Trace parents the run's causal spans: a dmatch.Run root with the
	// HyPart partition, one dmatch.superstep span per BSP step (with each
	// in-process worker's Deduce/IncDeduce as children on the worker's
	// lane), the master's route span with per-destination inbox builds,
	// and a dmatch.recover span for each worker-failure recovery. The zero
	// value disables capture; when Metrics is set and Trace is not, a root
	// is derived from the registry's tracer so a -telemetry run always
	// yields a causal trace (/debug/trace).
	Trace telemetry.TraceContext
	// Log, when non-nil and at debug level, receives wide events: one
	// JSON line per superstep (makespan, skew, routed/deduped counts,
	// wire bytes, recoveries and knob state) plus the per-round lines of
	// every in-process worker engine.
	Log *telemetry.Logger
	// Health attaches the run to a health monitor: a superstep heartbeat
	// for the stall watchdog, a sampled auditor over the master's global
	// union-find (run in the sequential route phase, where it is
	// quiescent), and the same monitor threaded into every in-process
	// worker engine (see chase.Options.Health). When the monitor carries
	// ground truth, the master feeds the accuracy observatory from the
	// globally folded matches — the authoritative estimate, since workers
	// only see their fragments. nil disables the layer.
	Health *health.Monitor
	// Provenance enables justification capture: every worker engine
	// records its derivations into a per-worker log stamped with the
	// worker id and the current superstep, and the logs are stitched into
	// one global log after the fixpoint (Result.Provenance / Result.Proof).
	// Off by default; the disabled cost is one branch per applied fact.
	// In-process only: RunDistributed rejects it.
	Provenance bool
	// ProvenanceLimit bounds each worker's log (0 means
	// provenance.DefaultLimit, negative means unbounded).
	ProvenanceLimit int
}

// engineOptions is the one mapping from run options to the chase.Options
// every worker engine is built with. Its result carries value fields
// only, so it crosses the wire unchanged (wire.Assign) and the in-process
// engines and the worker-process engines are constructed from identical
// options — engine construction is part of the Γ byte-identity contract
// between the two modes. Observability hooks are layered on by in-process
// callers; they never change Γ.
func engineOptions(opts Options, idSpace int) chase.Options {
	return chase.Options{
		MaxDeps:            opts.MaxDeps,
		ShareIndexes:       !opts.NoMQO,
		IDSpace:            idSpace,
		SequentialDeduce:   opts.Sequential || opts.SequentialDeduce,
		SequentialDrain:    opts.Sequential || opts.SequentialDrain,
		DrainParallelMin:   opts.DrainParallelMin,
		InterpretRules:     opts.InterpretRules,
		PlanResortMinEvals: opts.PlanResortMinEvals,
	}
}

// Result is the outcome of a parallel run.
type Result struct {
	// Matches is the deduplicated set of deduced match facts.
	Matches []chase.Fact
	// Validated is the deduplicated set of validated ML predictions.
	Validated []chase.Fact
	// Eq is the global id-equivalence relation E_id over the dataset.
	Eq *unionfind.UnionFind

	Supersteps     int
	MessagesRouted int64 // facts delivered worker->worker via the master
	// MessagesDeduped counts the deliveries the routing seen-sets
	// suppressed: a fact bound for a worker that already received it in
	// an earlier superstep or produced it itself in this one.
	MessagesDeduped int64
	FactsProduced   int64 // facts reported by workers incl. duplicates
	PartitionStats  hypart.Stats
	PartitionTime   time.Duration
	ERTime          time.Duration
	// SimulatedTime is the BSP makespan: per superstep, the maximum
	// compute time over the workers, summed over supersteps. On a
	// machine with fewer cores than workers this — not wall-clock ERTime
	// — is the faithful stand-in for the runtime on a real n-machine
	// cluster (use Options.Sequential for undistorted per-worker
	// timings). The parallel-scalability experiments report it. It is a
	// simulation-only model even under RunDistributed: real measured
	// time lives in the timeline's per-superstep WallNs (and BytesOnWire
	// for the wire), not here.
	SimulatedTime time.Duration
	WorkerStats   []chase.Stats
	// Rebalances is always empty. Skew-adaptive block migration was
	// removed (DESIGN.md §10); the field stays so reports that count
	// rebalances keep reading 0.
	Rebalances []struct{}
	// Recoveries lists the worker-failure recoveries of the run.
	Recoveries []RecoveryEvent
	// Wire is the wire-protocol measurement of a distributed run — bytes,
	// frames, codec time, and dictionary economics over every worker
	// connection. Zero in-process, where no bytes move.
	Wire wire.Snapshot

	timeline Timeline
	prov     *provenance.Log
	d        *relation.Dataset
}

// Provenance returns the merged cross-worker justification log of the run
// (nil when Options.Provenance was off): the per-worker logs stitched in
// (superstep, worker, sequence) order, with each routed fact's arrival
// record displaced by the originating worker's derivation.
func (r *Result) Provenance() *provenance.Log { return r.prov }

// Proof extracts a justification of the pair (a, b) from the merged log —
// including proofs whose derivation chain crosses workers. It returns
// provenance.ErrNotEntailed for unmatched pairs and
// provenance.ErrIncomplete when capture was off or a log overflowed.
func (r *Result) Proof(a, b relation.TID) ([]provenance.Entry, error) {
	return r.prov.Proof([2]relation.TID{a, b}, chase.BuildEquivalence(r.d, nil))
}

// Timeline returns the BSP superstep profile of the run: per-worker
// busy/idle time, routed message counts, and skew, one entry per
// superstep. Always recorded (the cost is bounded by supersteps×workers).
func (r *Result) Timeline() *Timeline { return &r.timeline }

// Same reports whether two tuples are matched in the global Γ.
func (r *Result) Same(a, b relation.TID) bool {
	return a == b || r.Eq.Same(int(a), int(b))
}

// Classes returns the non-singleton global equivalence classes.
func (r *Result) Classes() [][]relation.TID {
	groups := make(map[int][]relation.TID)
	for _, t := range r.d.Tuples() {
		root := r.Eq.Find(int(t.GID))
		groups[root] = append(groups[root], t.GID)
	}
	var out [][]relation.TID
	for _, g := range groups {
		if len(g) > 1 {
			out = append(out, g)
		}
	}
	return out
}

// Run partitions d with HyPart and executes the BSP fixpoint with n
// in-process workers, each a chase engine over its fragment.
func Run(d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, opts Options) (*Result, error) {
	n := opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	var provLogs []*provenance.Log
	if opts.Provenance {
		provLogs = make([]*provenance.Log, n)
		for i := range provLogs {
			provLogs[i] = provenance.NewLog(opts.ProvenanceLimit)
			provLogs[i].SetWorker(i)
		}
	}
	return drive(d, rules, n, opts, provLogs, nil, func(idSpace int, rtc telemetry.TraceContext) ([]worker, error) {
		return localWorkers(d, rules, reg, opts, n, idSpace, rtc, provLogs), nil
	})
}
