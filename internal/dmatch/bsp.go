package dmatch

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"dcer/internal/chase"
	"dcer/internal/health"
	"dcer/internal/hypart"
	"dcer/internal/provenance"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
	"dcer/internal/wire"
)

// worker is one BSP participant as the superstep loop sees it. Two kinds
// implement it: localWorker, a chase engine in this process (worker.go),
// and remoteWorker, a worker process over internal/wire (distributed.go).
type worker interface {
	// assign (re)builds the worker over a fragment. Its next step runs a
	// full Deduce, then feeds replay — the fact history a rebuilt worker
	// must catch up on — and that step's inbox through A_Δ.
	assign(frag []relation.TID, ruleFrags [][]relation.TID, replay []chase.Fact) error
	// step runs one superstep over inbox and returns the new facts with
	// the worker's compute time. An error means the worker is dead; tc
	// parents the step's engine spans where the engine is local.
	step(step int, inbox []chase.Fact, tc telemetry.TraceContext) ([]chase.Fact, time.Duration, error)
	// stats returns the worker's final engine counters.
	stats() chase.Stats
}

// connectFunc creates a run's n workers. drive calls it on its own
// goroutine while HyPart partitions the dataset; idSpace sizes every
// engine and rtc is the run's root trace context.
type connectFunc func(idSpace int, rtc telemetry.TraceContext) ([]worker, error)

// RecoveryEvent describes one worker-failure recovery.
type RecoveryEvent struct {
	// Step is the superstep after which the recovery ran.
	Step int
	// Worker is the dead worker's slot (retired; slots are never reused).
	Worker int
	// BlocksMoved is how many of the dead worker's virtual blocks were
	// reassigned; WorkersRebuilt is how many survivors got new fragments.
	BlocksMoved    int
	WorkersRebuilt int
	// RebuildNs is the master-side cost: reassignment, host-bitset
	// rebuild, replay preparation, and handing the new fragments out.
	RebuildNs int64
}

// recoverAssign moves every block of the dead workers to the least-loaded
// survivor (LPT greedy over block sizes, largest orphan first), leaving
// all other assignments untouched — an incremental reassignment rather
// than a global re-run, so surviving workers that host none of the
// orphaned blocks keep their engines.
func recoverAssign(blocks []hypart.Block, assign []int, dead map[int]bool, alive []bool) []int {
	next := append([]int(nil), assign...)
	load := make([]float64, len(alive))
	var orphans []int
	for b := range blocks {
		if dead[assign[b]] {
			orphans = append(orphans, b)
		} else {
			load[assign[b]] += float64(len(blocks[b].GIDs))
		}
	}
	sort.Slice(orphans, func(i, j int) bool {
		bi, bj := orphans[i], orphans[j]
		if len(blocks[bi].GIDs) != len(blocks[bj].GIDs) {
			return len(blocks[bi].GIDs) > len(blocks[bj].GIDs)
		}
		return bi < bj
	})
	for _, b := range orphans {
		best := -1
		for w := range alive {
			if alive[w] && (best < 0 || load[w] < load[best]) {
				best = w
			}
		}
		next[b] = best
		load[best] += float64(len(blocks[b].GIDs))
	}
	return next
}

// drive is the one BSP superstep loop behind Run and RunDistributed: it
// partitions d with HyPart while it connects n workers, hands every
// worker its fragment at once, and runs supersteps until no live worker
// has an inbox or a pending rebuild. Each superstep steps every live
// worker (concurrently unless opts.Sequential), folds the deltas into
// the global Γ in worker-index order, and routes the new facts. A
// worker whose step fails is dead: its blocks move to the survivors
// (recoverAssign), the survivors that gained blocks are rebuilt, and each
// replays the fact history (replayFor) — facts are idempotent and the
// fixpoint is unique, so Γ is unchanged.
// provLogs are the in-process workers' provenance logs (nil when off); ws
// is the wire tally of a distributed run (nil in-process).
func drive(d *relation.Dataset, rules []*rule.Rule, n int, opts Options,
	provLogs []*provenance.Log, ws *wire.Stats, connect connectFunc) (*Result, error) {
	tc := opts.Trace
	if !tc.Enabled() && opts.Metrics != nil {
		tc = opts.Metrics.Tracer().NewTrace(telemetry.PIDDMatch, 0)
	}
	runSpan := tc.Start("dmatch.Run", telemetry.L("workers", strconv.Itoa(n)))
	defer runSpan.End()
	rtc := runSpan.Context()

	// Worker start-up (spawn, accept and handshake, for worker processes)
	// needs only the id space, so it runs while HyPart partitions. The
	// connect goroutine is always waited for, on every path, before
	// drive returns.
	ms := newMasterState(d, n)
	type connection struct {
		workers []worker
		err     error
	}
	connected := make(chan connection, 1)
	go func() {
		workers, err := connect(ms.idSpace, rtc)
		connected <- connection{workers, err}
	}()
	t0 := time.Now()
	part, err := hypart.Partition(d, rules, n, hypart.Options{
		Share:          !opts.NoMQO,
		ReplicationCap: opts.ReplicationCap,
		Metrics:        opts.Metrics,
		Trace:          rtc,
	})
	partTime := time.Since(t0)
	conn := <-connected
	if err != nil {
		return nil, err
	}
	if conn.err != nil {
		return nil, conn.err
	}
	res := &Result{PartitionStats: part.Stats, PartitionTime: partTime, d: d}
	workers := conn.workers

	// Membership: alive workers are stepped; fresh ones were just
	// (re)assigned and must run their full Deduce even with an empty
	// inbox; dead ones await recovery after the current superstep.
	alive := make([]bool, n)
	fresh := make([]bool, n)
	for i := range alive {
		alive[i], fresh[i] = true, true
	}
	// each runs f(i) for every live worker: one goroutine per worker, or
	// in index order under opts.Sequential.
	each := func(f func(i int)) {
		var wg sync.WaitGroup
		for i := range workers {
			if !alive[i] {
				continue
			}
			if opts.Sequential {
				f(i)
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				f(i)
			}(i)
		}
		wg.Wait()
	}

	// The first assignment builds every worker's engine (or ships every
	// fragment) concurrently.
	ms.setHosts(part.Fragments)
	assignErrs := make([]error, n)
	each(func(i int) {
		assignErrs[i] = workers[i].assign(part.Fragments[i], part.RuleFragments[i], nil)
	})
	for _, err := range assignErrs {
		if err != nil {
			return nil, err
		}
	}

	t1 := time.Now()
	ms.rebuildHostBits()
	curAssign := make([]int, len(part.Blocks))
	for b := range part.Blocks {
		curAssign[b] = part.Blocks[b].Worker
	}

	// BSP instruments. Every instrument is a no-op when opts.Metrics is
	// nil (nil-safe telemetry handles), so the loop below reads the same
	// either way; the superstep timeline itself is recorded
	// unconditionally (its cost is bounded by supersteps × workers).
	tl := &res.timeline
	tl.Workers = n
	var tlMu sync.Mutex
	mreg := opts.Metrics
	stepGauge := mreg.Gauge("dcer_dmatch_superstep")
	makespanGauge := mreg.Gauge("dcer_dmatch_step_makespan_ns")
	skewGauge := mreg.Gauge("dcer_dmatch_step_skew")
	routedCtr := mreg.Counter("dcer_dmatch_messages_routed")
	dedupCtr := mreg.Counter("dcer_dmatch_messages_deduped")
	factsCtr := mreg.Counter("dcer_dmatch_facts_produced")
	routeHist := mreg.Histogram("dcer_dmatch_route_ns")
	busyHists := make([]*telemetry.Histogram, n)
	for i := range busyHists {
		busyHists[i] = mreg.Histogram("dcer_dmatch_worker_busy_ns", telemetry.L("worker", strconv.Itoa(i)))
	}
	mreg.SetDebug("dmatch_timeline", func() any {
		tlMu.Lock()
		defer tlMu.Unlock()
		return Timeline{Workers: tl.Workers, Steps: append([]Superstep(nil), tl.Steps...)}
	})
	if provLogs != nil {
		// Replace the per-engine providers registered by the worker
		// engines with the aggregate view over all worker logs.
		mreg.SetDebug("provenance", func() any { return provenance.Summarize(provLogs...) })
	}
	// Health wiring: the superstep heartbeat brackets the whole BSP loop,
	// and the master's sequential route phase audits the global
	// union-find and feeds the accuracy observatory (nil-safe no-ops when
	// no monitor is attached).
	dhb := opts.Health.Heartbeat("dmatch_superstep")
	dhb.Enter()
	defer dhb.Exit()
	gufCheck := opts.Health.Check("global_unionfind")
	accSeen := 0

	aliveCount := n
	var dead []int
	markDead := func(w int, cause error) error {
		alive[w] = false
		aliveCount--
		dead = append(dead, w)
		opts.Health.Check("dist_workers").Fail(1, "worker %d died: %v", w, cause)
		if aliveCount == 0 {
			return fmt.Errorf("dmatch: all %d workers died (last: worker %d: %v)", n, w, cause)
		}
		return nil
	}

	inboxes := make([][]chase.Fact, n)
	deltas := make([][]chase.Fact, n)
	elapsed := make([]time.Duration, n)
	stepErrs := make([]error, n)
	msgsIn := make([]int, n)
	factsOut := make([]int, n)
	for step := 0; ; step++ {
		dhb.Beat()
		stepWall := time.Now()
		wireBase := ws.Snapshot()
		ssp := rtc.Start("dmatch.superstep", telemetry.L("step", strconv.Itoa(step)))
		stc := ssp.Context()
		for _, l := range provLogs {
			l.SetStep(step)
		}
		for i := range workers {
			msgsIn[i] = len(inboxes[i])
			deltas[i], elapsed[i], stepErrs[i] = nil, 0, nil
		}
		each(func(i int) {
			deltas[i], elapsed[i], stepErrs[i] = workers[i].step(step, inboxes[i], stc)
			fresh[i] = false
		})
		for i, err := range stepErrs {
			if err != nil {
				deltas[i], elapsed[i] = nil, 0
				if err := markDead(i, err); err != nil {
					return nil, err
				}
			}
		}
		res.Supersteps++
		var stepMax time.Duration
		for i, e := range elapsed {
			stepMax = max(stepMax, e)
			busyHists[i].Observe(uint64(e))
		}
		res.SimulatedTime += stepMax
		stepGauge.Set(float64(step))
		makespanGauge.Set(float64(stepMax))

		routeStart := time.Now()
		rsp := stc.Start("dmatch.route")
		routeTC := rsp.Context()
		// Master, phase 1 (sequential): fold the union of the workers'
		// new facts into the global Γ and compute each fact's recipient
		// bitset — the workers hosting any member of the classes the fact
		// touches (the ΔΓ_i of the fixpoint equations). Fold order is
		// worker-index order; the deterministic Γ depends on it.
		ms.beginFold()
		var stepFacts int64
		for w, delta := range deltas {
			stepFacts += int64(len(delta))
			factsOut[w] = len(delta)
			ms.foldDelta(w, delta, res)
		}
		res.FactsProduced += stepFacts
		if opts.Health != nil {
			// Still in the sequential master phase: guf is quiescent, so
			// the sampled chain audit needs no locks; Find's path
			// compression is the master's own mutation, as in the fold.
			sample := health.SampleIDs(ms.guf.Len(), opts.Health.SampleSize(), opts.Health.Seed()+int64(step))
			if err := health.AuditUnionFind(ms.guf, sample); err != nil {
				gufCheck.Fail(len(sample), "superstep %d: %v", step, err)
			} else {
				gufCheck.Pass(len(sample))
			}
			if acc := opts.Health.Accuracy(); acc != nil {
				accSeen = observeMasterAccuracy(acc, res.Matches, accSeen, provLogs, ms.guf)
			}
		}
		// Master, phase 2: per-destination inbox builders. Each builder
		// owns its destination's inbox, seen-set, and counters, so the
		// fan-out is race-free and the built batches are identical to a
		// sequential build. Dead workers get no inbox.
		next := make([][]chase.Fact, n)
		stepRouted := make([]int64, n)
		stepDeduped := make([]int64, n)
		buildDest := func(h int) {
			isp := routeTC.Lane(telemetry.PIDDMatch, int32(h+1)).Start("dmatch.inbox")
			next[h], stepRouted[h], stepDeduped[h] = ms.buildDest(h, deltas[h])
			isp.End()
		}
		each(buildDest)
		var routedStep, dedupedStep int64
		for h := 0; h < n; h++ {
			routedStep += stepRouted[h]
			dedupedStep += stepDeduped[h]
		}
		res.MessagesRouted += routedStep
		res.MessagesDeduped += dedupedStep
		inboxes = next
		rsp.End()
		routeNs := int64(time.Since(routeStart))
		routeHist.Observe(uint64(routeNs))
		routedCtr.Add(routedStep)
		dedupCtr.Add(dedupedStep)
		factsCtr.Add(stepFacts)
		wireNow := ws.Snapshot()
		wireStep := wireNow.BytesOut + wireNow.BytesIn - wireBase.BytesOut - wireBase.BytesIn
		tlMu.Lock()
		tl.record(step, elapsed, factsOut, msgsIn, routeNs, int64(time.Since(stepWall)), wireStep, routedStep, dedupedStep)
		skew := tl.Steps[len(tl.Steps)-1].SkewRatio
		tlMu.Unlock()
		skewGauge.Set(skew)

		// Recovery, the loop's one membership change: reassign every dead
		// worker's blocks to the least-loaded survivors and rebuild the
		// survivors that gained blocks. The replay (every match plus the
		// validated facts a recipient hosts) supersedes any inbox already
		// built for it. A survivor that fails its rebuild is dead too and
		// is recovered after the next superstep.
		if len(dead) > 0 {
			rt0 := time.Now()
			rcsp := stc.Start("dmatch.recover", telemetry.L("dead", strconv.Itoa(len(dead))))
			deadSet := make(map[int]bool, len(dead))
			for _, w := range dead {
				deadSet[w] = true
			}
			orphansOf := make(map[int]int, len(dead))
			for _, w := range curAssign {
				if deadSet[w] {
					orphansOf[w]++
				}
			}
			newAssign := recoverAssign(part.Blocks, curAssign, deadSet, alive)
			changed := make([]bool, n)
			for b := range newAssign {
				if newAssign[b] != curAssign[b] {
					changed[newAssign[b]] = true
				}
			}
			frags, ruleFrags := hypart.BuildFragments(part.Blocks, newAssign, n, len(rules))
			ms.setHosts(frags)
			ms.rebuildHostBits()
			curAssign = newAssign
			recovered := dead
			dead = nil
			rebuilt := 0
			for w := range workers {
				if !alive[w] || !changed[w] {
					continue
				}
				replay := ms.replayFor(w, res)
				ms.resetWorker(w, replay)
				inboxes[w] = nil
				if err := workers[w].assign(frags[w], ruleFrags[w], replay); err != nil {
					if err := markDead(w, err); err != nil {
						return nil, err
					}
					continue
				}
				fresh[w] = true
				rebuilt++
			}
			rebuildNs := int64(time.Since(rt0))
			for _, w := range recovered {
				inboxes[w] = nil
				res.Recoveries = append(res.Recoveries, RecoveryEvent{
					Step: step, Worker: w, BlocksMoved: orphansOf[w],
					WorkersRebuilt: rebuilt, RebuildNs: rebuildNs,
				})
			}
			rcsp.End()
		}

		if opts.Log.Level() <= telemetry.LogDebug {
			opts.Log.Wide(telemetry.LogDebug, "dmatch_superstep",
				telemetry.F{K: "step", V: step},
				telemetry.F{K: "workers", V: aliveCount},
				telemetry.F{K: "makespan_ns", V: int64(stepMax)},
				telemetry.F{K: "skew", V: skew},
				telemetry.F{K: "facts", V: stepFacts},
				telemetry.F{K: "routed", V: routedStep},
				telemetry.F{K: "deduped", V: dedupedStep},
				telemetry.F{K: "route_ns", V: routeNs},
				telemetry.F{K: "wire_bytes", V: wireStep},
				telemetry.F{K: "recoveries", V: len(res.Recoveries)},
				telemetry.F{K: "plan_on", V: !opts.InterpretRules},
				telemetry.F{K: "sequential", V: opts.Sequential},
				telemetry.F{K: "distributed", V: ws != nil},
			)
		}
		ssp.End()

		done := len(dead) == 0
		for i := range workers {
			if alive[i] && (len(inboxes[i]) > 0 || fresh[i]) {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	res.WorkerStats = make([]chase.Stats, n)
	for i, w := range workers {
		if alive[i] {
			res.WorkerStats[i] = w.stats()
		}
	}
	res.ERTime = time.Since(t1)
	res.Eq = ms.guf
	res.Wire = ws.Snapshot()
	if provLogs != nil {
		res.prov = provenance.Merge(provLogs...)
	}
	return res, nil
}
