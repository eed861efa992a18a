// Package hypart implements HyPart (Section IV): data partitioning for
// deep and collective ER in place of blocking. It extends the Hypercube
// algorithm to a set of MRLs using the MQO hash-function assignment, lays
// tuples out over virtual blocks (n² blocks for n workers), and assigns
// blocks to workers with an LPT minimum-makespan heuristic to balance the
// load.
//
// The partition has the locality property of Lemma 6: every valuation of
// every rule is fully contained in at least one fragment, so checking
// D ⊨ Σ (and chasing) can be done locally, with only deduced matches and
// validated ML predictions exchanged between workers.
//
// Partition itself is parallel: the (rule, variable) tuple scans are
// sharded over Options.Shards goroutines, each feeding a private block
// accumulator keyed by packed-uint64 block fingerprints, and the
// accumulators are merged commutatively and ordered canonically — the
// output is byte-identical for every shard count (the snapshot-
// enumerate-merge discipline of internal/chase applied to partitioning).
package hypart

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dcer/internal/fnv"
	"dcer/internal/mqo"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
)

// Options configures the partitioner.
type Options struct {
	// Share enables MQO hash-function sharing (HyPart proper); false is
	// the DMatch_noMQO configuration.
	Share bool
	// VirtualBlocks overrides the number of virtual blocks; 0 means n².
	VirtualBlocks int
	// ReplicationCap bounds the per-tuple copy factor of any rule: a
	// dimension is only enlarged while every tuple variable's broadcast
	// product stays within the cap. This is the pragmatic stand-in for
	// the Lagrangean extent allocation of Afrati-Ullman — wide collective
	// rules keep locality (Lemma 6) but are spread over fewer blocks.
	// Replication is inherent to Hypercube multi-way joins (the
	// communication-optimal factor for a ρ-wide join is n^(1-1/ρ)), so
	// the default grows with the worker count: max(4, n/2).
	ReplicationCap int
	// Shards is the number of goroutines the tuple scans fan out over;
	// 0 means GOMAXPROCS, 1 forces the single-threaded path. The output
	// is byte-identical for every value (merge is commutative and the
	// final block order canonical).
	Shards int
	// Metrics, when non-nil, receives the partition shape as histograms:
	// dcer_hypart_fragment_size (tuples per worker fragment, one
	// observation per worker) and dcer_hypart_block_size (tuples per
	// non-empty virtual block). Nil disables with no overhead.
	Metrics *telemetry.Registry
	// Trace parents the partition's causal spans: a hypart.Partition
	// root, one hypart.shard.scan span per scan goroutine (each on its
	// own shard lane), and the hypart.merge/hypart.assign spans of the
	// sequential tail. The zero value disables capture; when Metrics is
	// set and Trace is not, a root is derived from the registry's tracer.
	Trace telemetry.TraceContext
}

// Stats reports the partitioning work, for the Exp-2 experiments.
type Stats struct {
	HashComputations int64 // distinct hash-function evaluations
	HashLookups      int64 // total evaluations incl. memoized reuse
	GeneratedTuples  int64 // |H(Σ,D)|: tuple copies generated before dedup
	PlacedTuples     int64 // tuple copies after per-block dedup
	Blocks           int   // non-empty virtual blocks
	HashFns          int   // hash functions used (after sharing)
	HashFnsBaseline  int   // one-per-distinct-variable baseline
	MaxFragment      int
	MinFragment      int
	Shards           int // goroutines the partition pass actually used
}

// Block is one virtual block of the computed partition: its canonical
// identity (the sorted packed (fn, extent, bucket) triples), its member
// tuples, the rules whose hypercubes generated it, and the worker the LPT
// assignment placed it on. Blocks are retained in the Result so the
// master can re-assign them later (worker-failure recovery in dmatch)
// without re-partitioning.
type Block struct {
	Canon  []uint64       // sorted packed dims; the deterministic identity
	GIDs   []relation.TID // sorted member tuples
	Rules  []int          // sorted indices of the rules generating the block
	Worker int            // LPT assignment
}

// Result is the computed partition.
type Result struct {
	// Fragments[i] lists the GIDs assigned to worker i (deduplicated):
	// the union of the virtual blocks placed on the worker.
	Fragments [][]relation.TID
	// RuleFragments[i][r] lists the GIDs of worker i's blocks that were
	// generated for rule r. Hypercube semantics evaluate each rule within
	// its own blocks; scoping the chase per rule avoids every rule
	// re-scanning tuples that other rules' blocks brought to the worker.
	RuleFragments [][][]relation.TID
	// Blocks lists the non-empty virtual blocks in canonical order (nil
	// on the n=1 fast path, which has no blocks to balance).
	Blocks []Block
	Plan   *mqo.Plan
	Stats  Stats
}

// dim is one hypercube dimension of a rule: a distinct-variable class with
// its hash function and extent.
type dim struct {
	dv   *rule.DistinctVar
	fn   int
	size int
}

func errWorkers(n int) error {
	return fmt.Errorf("hypart: need at least one worker, got %d", n)
}

// effectiveRepCap resolves the replication-cap default: max(4, n/2).
func effectiveRepCap(cap, n int) int {
	if cap > 0 {
		return cap
	}
	out := 4
	if n/2 > out {
		out = n / 2
	}
	return out
}

// partitionSingle is the n=1 fast path: one fragment holding everything.
func partitionSingle(d *relation.Dataset, rules []*rule.Rule, res *Result, metrics *telemetry.Registry) *Result {
	ids := make([]relation.TID, 0, d.Size())
	for _, t := range d.Tuples() {
		ids = append(ids, t.GID)
	}
	res.Fragments = [][]relation.TID{ids}
	perRule := make([][]relation.TID, len(rules))
	for r := range perRule {
		perRule[r] = ids
	}
	res.RuleFragments = [][][]relation.TID{perRule}
	res.Stats.MaxFragment, res.Stats.MinFragment = len(ids), len(ids)
	metrics.Histogram("dcer_hypart_fragment_size").Observe(uint64(len(ids)))
	return res
}

// packDim packs one (fn, extent, bucket) dimension into a uint64 so block
// identities are short integer vectors instead of concatenated strings.
// Numeric order on the packed value equals (fn, extent, bucket)
// lexicographic order, so sorting packed dims canonicalizes a key exactly
// like the seed partitioner's sorted string parts. The fields are bounded
// far below the packing widths: fn by the plan's hash-function count,
// extent and bucket by the virtual-block budget n².
func packDim(fn, size, coord int) uint64 {
	return uint64(fn)<<40 | uint64(size)<<20 | uint64(coord)
}

// blockAcc accumulates one virtual block inside a shard (and, after the
// merge, globally): identity, member set, and the rules that emitted it.
type blockAcc struct {
	canon []uint64
	gids  map[relation.TID]struct{}
	rules []uint64 // bitset over rule indices
}

// shardAcc is one goroutine's private accumulator: blocks keyed by the
// FNV fingerprint of the canonical key, fingerprint collisions resolved
// by comparing the canonical keys themselves (the scopeKey/sameIDs
// discipline — a collision costs a chain walk, never a wrong block).
type shardAcc struct {
	blocks    map[uint64][]*blockAcc
	generated int64
	ruleWords int
	key       []uint64 // per-emit scratch
}

func newShardAcc(numRules int) *shardAcc {
	return &shardAcc{
		blocks:    make(map[uint64][]*blockAcc),
		ruleWords: (numRules + 63) / 64,
	}
}

func canonEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// canonLess orders canonical keys: shorter first, then elementwise.
func canonLess(a, b []uint64) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// emit registers gid in the block identified by dims/coord for rule ri.
func (sa *shardAcc) emit(dims []dim, coord []int, ri int, gid relation.TID) {
	sa.generated++
	key := sa.key[:0]
	for i := range dims {
		key = append(key, packDim(dims[i].fn, dims[i].size, coord[i]))
	}
	// Insertion sort: keys are tiny (one element per rule dimension).
	for i := 1; i < len(key); i++ {
		for j := i; j > 0 && key[j] < key[j-1]; j-- {
			key[j], key[j-1] = key[j-1], key[j]
		}
	}
	sa.key = key
	h := uint64(fnv.Offset64)
	for _, k := range key {
		h = fnv.Uint64(h, k)
	}
	var acc *blockAcc
	for _, cand := range sa.blocks[h] {
		if canonEqual(cand.canon, key) {
			acc = cand
			break
		}
	}
	if acc == nil {
		acc = &blockAcc{
			canon: append([]uint64(nil), key...),
			gids:  make(map[relation.TID]struct{}),
			rules: make([]uint64, sa.ruleWords),
		}
		sa.blocks[h] = append(sa.blocks[h], acc)
	}
	acc.gids[gid] = struct{}{}
	acc.rules[ri>>6] |= 1 << (uint(ri) & 63)
}

// emitBroadcast enumerates the broadcast combinations of coord and emits
// the tuple into each resulting block. Block keys embed (fn, extent,
// bucket) per dimension, so rules sharing all hash functions and extents
// share blocks — the tuple-copy dedup that MQO sharing buys.
func (sa *shardAcc) emitBroadcast(dims []dim, coord []int, bcast []int, bi, ri int, gid relation.TID) {
	if bi == len(bcast) {
		sa.emit(dims, coord, ri, gid)
		return
	}
	di := bcast[bi]
	for b := 0; b < dims[di].size; b++ {
		coord[di] = b
		sa.emitBroadcast(dims, coord, bcast, bi+1, ri, gid)
	}
}

// merge folds other into sa. Union is commutative, so the merged content
// is independent of shard scheduling.
func (sa *shardAcc) merge(other *shardAcc) {
	sa.generated += other.generated
	for h, chain := range other.blocks {
		for _, in := range chain {
			var acc *blockAcc
			for _, cand := range sa.blocks[h] {
				if canonEqual(cand.canon, in.canon) {
					acc = cand
					break
				}
			}
			if acc == nil {
				sa.blocks[h] = append(sa.blocks[h], in)
				continue
			}
			if len(acc.gids) < len(in.gids) {
				acc.gids, in.gids = in.gids, acc.gids
			}
			for gid := range in.gids {
				acc.gids[gid] = struct{}{}
			}
			for i, w := range in.rules {
				acc.rules[i] |= w
			}
		}
	}
}

// varScan is the per-(rule, variable) scan preparation shared by every
// shard: the rule's dimensions, which of them hash this variable (and on
// which attribute), which are broadcast, and the base coordinates.
type varScan struct {
	ri     int
	dims   []dim
	rel    *relation.Relation
	hashed []int
	attrs  []int // attribute per hashed dim
	bcast  []int
	base   []int // -1 for open dims, 0 for extent-1 dims
}

// unit is one shard work item: a tuple range of one varScan.
type unit struct {
	scan   *varScan
	lo, hi int
}

// unitChunk bounds the tuples per work unit so large relations split
// across shards while the unit list stays short.
const unitChunk = 2048

// Partition splits dataset d into n fragments for the rule set Σ.
func Partition(d *relation.Dataset, rules []*rule.Rule, n int, opts Options) (*Result, error) {
	if n < 1 {
		return nil, errWorkers(n)
	}
	tc := opts.Trace
	if !tc.Enabled() && opts.Metrics != nil {
		tc = opts.Metrics.Tracer().NewTrace(telemetry.PIDHyPart, 0)
	}
	root := tc.Start("hypart.Partition", telemetry.L("workers", strconv.Itoa(n)))
	defer root.End()
	ptc := root.Context()

	plan, err := mqo.Build(rules, opts.Share)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: plan}
	res.Stats.HashFns, res.Stats.HashFnsBaseline = plan.Savings()
	if n == 1 {
		res.Stats.Shards = 1
		return partitionSingle(d, rules, res, opts.Metrics), nil
	}

	vb := opts.VirtualBlocks
	if vb == 0 {
		vb = n * n
	}
	repCap := effectiveRepCap(opts.ReplicationCap, n)
	relSizes := make([]int, len(d.Relations))
	for i, rel := range d.Relations {
		relSizes[i] = len(rel.Tuples)
	}

	// Prepare the per-(rule, variable) scans and chunk them into units.
	var scans []*varScan
	for ri, ra := range plan.Assignments {
		dims := buildDims(ra, vb, repCap, relSizes)
		for vi, v := range ra.Rule.Vars {
			sc := &varScan{ri: ri, dims: dims, rel: d.Relations[v.RelIdx], base: make([]int, len(dims))}
			for di := range dims {
				sc.base[di] = -1
				if dims[di].size == 1 {
					sc.base[di] = 0
				}
				if attr, ok := dims[di].dv.AttrOf(vi); ok {
					sc.hashed = append(sc.hashed, di)
					sc.attrs = append(sc.attrs, attr)
				} else if dims[di].size > 1 {
					sc.bcast = append(sc.bcast, di)
				}
			}
			scans = append(scans, sc)
		}
	}
	var units []unit
	for _, sc := range scans {
		for lo := 0; lo < len(sc.rel.Tuples); lo += unitChunk {
			hi := lo + unitChunk
			if hi > len(sc.rel.Tuples) {
				hi = len(sc.rel.Tuples)
			}
			units = append(units, unit{sc, lo, hi})
		}
	}

	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > len(units) {
		shards = len(units)
	}
	if shards < 1 {
		shards = 1
	}
	res.Stats.Shards = shards

	hasher := mqo.NewShardedHasher()
	runShard := func(sa *shardAcc, take func() (unit, bool)) {
		var coord []int
		for {
			u, ok := take()
			if !ok {
				return
			}
			sc := u.scan
			coord = append(coord[:0], sc.base...)
			for _, t := range sc.rel.Tuples[u.lo:u.hi] {
				copy(coord, sc.base)
				for hi, di := range sc.hashed {
					coord[di] = int(hasher.Hash(sc.dims[di].fn, t.Val(sc.attrs[hi]))) % sc.dims[di].size
				}
				sa.emitBroadcast(sc.dims, coord, sc.bcast, 0, sc.ri, t.GID)
			}
		}
	}

	global := newShardAcc(len(rules))
	if shards == 1 {
		var sp telemetry.Span
		if ptc.Enabled() {
			sp = ptc.Lane(telemetry.PIDHyPart, 1).Start("hypart.shard.scan")
		}
		i := 0
		runShard(global, func() (unit, bool) {
			if i >= len(units) {
				return unit{}, false
			}
			i++
			return units[i-1], true
		})
		sp.End()
	} else {
		accs := make([]*shardAcc, shards)
		var cursor atomic.Int64
		take := func() (unit, bool) {
			i := int(cursor.Add(1)) - 1
			if i >= len(units) {
				return unit{}, false
			}
			return units[i], true
		}
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			accs[s] = newShardAcc(len(rules))
			wg.Add(1)
			go func(s int, sa *shardAcc) {
				defer wg.Done()
				var sp telemetry.Span
				if ptc.Enabled() {
					// Each scan goroutine renders on its own shard lane.
					sp = ptc.Lane(telemetry.PIDHyPart, int32(s+1)).Start("hypart.shard.scan")
				}
				runShard(sa, take)
				sp.End()
			}(s, accs[s])
		}
		wg.Wait()
		var msp telemetry.Span
		if ptc.Enabled() {
			msp = ptc.Start("hypart.merge", telemetry.L("shards", strconv.Itoa(shards)))
		}
		for _, sa := range accs {
			global.merge(sa)
		}
		msp.End()
	}
	res.Stats.HashComputations, res.Stats.HashLookups = hasher.Counts()
	res.Stats.GeneratedTuples = global.generated

	var asp telemetry.Span
	if ptc.Enabled() {
		asp = ptc.Start("hypart.assign")
		defer asp.End()
	}
	// Canonical block order: by key, so the result is independent of the
	// shard count and scheduling.
	var accs []*blockAcc
	for _, chain := range global.blocks {
		accs = append(accs, chain...)
	}
	sort.Slice(accs, func(i, j int) bool { return canonLess(accs[i].canon, accs[j].canon) })
	res.Blocks = make([]Block, len(accs))
	for bi, acc := range accs {
		gids := make([]relation.TID, 0, len(acc.gids))
		for gid := range acc.gids {
			gids = append(gids, gid)
		}
		sort.Slice(gids, func(a, b int) bool { return gids[a] < gids[b] })
		var ris []int
		for w, word := range acc.rules {
			for ; word != 0; word &= word - 1 {
				ris = append(ris, w*64+bits.TrailingZeros64(word))
			}
		}
		res.Blocks[bi] = Block{Canon: acc.canon, GIDs: gids, Rules: ris}
		res.Stats.PlacedTuples += int64(len(gids))
	}
	res.Stats.Blocks = len(res.Blocks)
	if opts.Metrics != nil {
		bh := opts.Metrics.Histogram("dcer_hypart_block_size")
		for i := range res.Blocks {
			bh.Observe(uint64(len(res.Blocks[i].GIDs)))
		}
	}

	// LPT minimum-makespan assignment of virtual blocks to workers, by
	// block size (the static cost model; dmatch re-runs this over
	// observed costs when a run shows skew).
	costs := make([]float64, len(res.Blocks))
	for i := range res.Blocks {
		costs[i] = float64(len(res.Blocks[i].GIDs))
	}
	assign := assignLPT(costs, n)
	for i := range res.Blocks {
		res.Blocks[i].Worker = assign[i]
	}
	res.Fragments, res.RuleFragments = BuildFragments(res.Blocks, assign, n, len(rules))
	res.Stats.MinFragment = int(^uint(0) >> 1)
	for i, ids := range res.Fragments {
		if len(ids) > res.Stats.MaxFragment {
			res.Stats.MaxFragment = len(ids)
		}
		if len(ids) < res.Stats.MinFragment {
			res.Stats.MinFragment = len(ids)
		}
		opts.Metrics.Histogram("dcer_hypart_fragment_size").Observe(uint64(len(res.Fragments[i])))
	}
	return res, nil
}

// assignLPT assigns blocks to n workers with the LPT minimum-makespan
// heuristic over the given per-block costs (Partition passes block
// sizes): blocks in descending cost order (ties by block index, which is
// canonical key order) go to the least-loaded worker (ties to the lowest
// worker).
func assignLPT(costs []float64, n int) []int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return costs[order[i]] > costs[order[j]] })
	load := make([]float64, n)
	assign := make([]int, len(costs))
	for _, b := range order {
		w := 0
		for i := 1; i < n; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		assign[b] = w
		load[w] += costs[b]
	}
	return assign
}

// BuildFragments materializes the per-worker fragments and per-rule rule
// scopes implied by an assignment of blocks to workers: Fragments[i] is
// the sorted union of worker i's blocks, RuleFragments[i][r] the sorted
// union of its blocks generated for rule r.
func BuildFragments(blocks []Block, assign []int, n, numRules int) ([][]relation.TID, [][][]relation.TID) {
	fragSets := make([]map[relation.TID]struct{}, n)
	ruleSets := make([][]map[relation.TID]struct{}, n)
	for i := range fragSets {
		fragSets[i] = make(map[relation.TID]struct{})
		ruleSets[i] = make([]map[relation.TID]struct{}, numRules)
	}
	for bi := range blocks {
		w := assign[bi]
		for _, gid := range blocks[bi].GIDs {
			fragSets[w][gid] = struct{}{}
		}
		for _, ri := range blocks[bi].Rules {
			set := ruleSets[w][ri]
			if set == nil {
				set = make(map[relation.TID]struct{})
				ruleSets[w][ri] = set
			}
			for _, gid := range blocks[bi].GIDs {
				set[gid] = struct{}{}
			}
		}
	}
	sortIDs := func(set map[relation.TID]struct{}) []relation.TID {
		ids := make([]relation.TID, 0, len(set))
		for gid := range set {
			ids = append(ids, gid)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		return ids
	}
	frags := make([][]relation.TID, n)
	ruleFrags := make([][][]relation.TID, n)
	for i := range fragSets {
		frags[i] = sortIDs(fragSets[i])
		ruleFrags[i] = make([][]relation.TID, numRules)
		for ri, rset := range ruleSets[i] {
			ruleFrags[i][ri] = sortIDs(rset)
		}
	}
	return frags, ruleFrags
}

// buildDims allocates hypercube extents to a rule's dimensions by greedy
// doubling, the pragmatic stand-in for the Lagrangean allocation of
// Afrati-Ullman: at each step it doubles the dimension whose member
// variables contribute the most tuples to each block (so the doubling
// shrinks the expected block the most), refusing any doubling that would
// push some variable's broadcast product beyond repCap or exceed the block
// budget vb. Constant-pinned dimensions carry one value and keep extent 1.
func buildDims(ra *mqo.RuleAssignment, vb, repCap int, relSizes []int) []dim {
	dims := make([]dim, len(ra.DVs))
	for _, di := range ra.DimOrder {
		dims[di] = dim{dv: ra.DVs[di], fn: ra.HashFn[di], size: 1}
	}
	nvars := len(ra.Rule.Vars)
	// replication(v) = product of extents of dimensions without a member
	// on v — the number of copies each tuple bound to v generates.
	replication := func(v int) int {
		r := 1
		for di := range dims {
			if _, ok := dims[di].dv.AttrOf(v); !ok {
				r *= dims[di].size
			}
		}
		return r
	}
	// contribution(v) = expected tuples variable v places in one block.
	contribution := func(v int) float64 {
		c := float64(relSizes[ra.Rule.Vars[v].RelIdx])
		for di := range dims {
			if _, ok := dims[di].dv.AttrOf(v); ok {
				c /= float64(dims[di].size)
			}
		}
		return c
	}
	product := 1
	for product*2 <= vb {
		best, bestGain := -1, 0.0
		for di := range dims {
			if dims[di].dv.Const {
				continue
			}
			// Doubling di halves its member variables' block contribution
			// but doubles the broadcast of every non-member variable;
			// check the cap.
			ok := true
			gain := 0.0
			for v := 0; v < nvars; v++ {
				if _, member := dims[di].dv.AttrOf(v); member {
					gain += contribution(v) / 2
				} else if replication(v)*2 > repCap {
					ok = false
					break
				}
			}
			if !ok || gain <= 0 {
				continue
			}
			if best < 0 || gain > bestGain {
				best, bestGain = di, gain
			}
		}
		if best < 0 {
			break
		}
		dims[best].size *= 2
		product *= 2
	}
	return dims
}
